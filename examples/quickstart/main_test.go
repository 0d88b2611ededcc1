package main

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/maincheck"
)

// The digest is sha256sum of this example's stdout; it pins the bytes
// across changes to the library, not only across runs of one build.
const stdoutSHA256 = "b99ddebb0a722209a8eb9fa2c5597a1c57670fb34c7c753000982263858d2259"

func TestOutputDeterministic(t *testing.T) { maincheck.Deterministic(t, 5, stdoutSHA256, main) }
