package harness

import (
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// TestAdaptiveDrainExperiment runs the adaptive-vs-fixed comparison at
// test scale and demands the experiment's own acceptance checks hold:
// the fixed-period point loses records, the adaptive schedule loses
// none and recovers the complete stream.
func TestAdaptiveDrainExperiment(t *testing.T) {
	r, err := AdaptiveDrainExperiment(Config{Runs: 1, Duration: 4 * sim.Second, CPUs: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatalf("adaptive drain checks failed:\n%s\nnotes: %v", r.Text, r.Notes)
	}
	for _, want := range []string{"fixed", "adaptive", "ring-drains"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("adaptive drain output missing %q:\n%s", want, r.Text)
		}
	}
}
