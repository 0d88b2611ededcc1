package main

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/maincheck"
)

// The digest is sha256sum of this example's stdout; it pins the bytes
// across changes to the library, not only across runs of one build.
const stdoutSHA256 = "19b602e409540ce7aa7b7891cb1f0f655a04468e18edf39e8ee56cbd6c5d35b3"

func TestOutputDeterministic(t *testing.T) { maincheck.Deterministic(t, 5, stdoutSHA256, main) }
