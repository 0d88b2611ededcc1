package main

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/maincheck"
)

func TestOutputDeterministic(t *testing.T) { maincheck.Deterministic(t, 5, main) }
