package harness

import (
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

func TestCapacityPlanExperiment(t *testing.T) {
	r, err := CapacityPlanExperiment(Config{Runs: 1, Duration: 6 * sim.Second, CPUs: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !r.OK {
		t.Fatalf("capacity plan checks failed:\n%s\nnotes: %v", r.Text, r.Notes)
	}
	for _, want := range []string{"unbounded", "capacity", "per-CPU losses"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("capacity plan output missing %q:\n%s", want, r.Text)
		}
	}
}

// TestCapacityPlanDeterministic pins the report text: the sweep fans out
// over a worker pool, and the rendered table must not depend on worker
// scheduling.
func TestCapacityPlanDeterministic(t *testing.T) {
	cfg := Config{Runs: 1, Duration: 3 * sim.Second, CPUs: 4, Seed: 5}
	seq := cfg
	seq.workers = 1
	par := cfg
	par.workers = 4
	a, err := CapacityPlanExperiment(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CapacityPlanExperiment(par)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Fatalf("report differs across worker counts:\n--- sequential ---\n%s--- parallel ---\n%s", a.Text, b.Text)
	}
}
