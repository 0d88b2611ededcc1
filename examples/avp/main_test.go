package main

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/maincheck"
)

// The digest is sha256sum of this example's stdout; it pins the bytes
// across changes to the library, not only across runs of one build.
const stdoutSHA256 = "0a1ce21c14f18f4f5a84ec8ce7b8540f1bddc594f0d4b12ada9456b9ce85b893"

func TestOutputDeterministic(t *testing.T) { maincheck.Deterministic(t, 5, stdoutSHA256, main) }
