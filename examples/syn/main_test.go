package main

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/maincheck"
)

// The digest is sha256sum of this example's stdout; it pins the bytes
// across changes to the library, not only across runs of one build.
const stdoutSHA256 = "905363b2252d87d88b662e2b59a6d3498352ac4f67c4705d0ac4209b9b723402"

func TestOutputDeterministic(t *testing.T) { maincheck.Deterministic(t, 5, stdoutSHA256, main) }
