package tracers

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// TestDecodedBundleEquivalence runs the full tracer bundle over a traced
// SYN+AVP session twice — once through the pre-decoded dispatch and once
// through the raw reference interpreter — and demands identical traces and
// identical runtime accounting. This is the program-bundle-level
// equivalence guarantee the load-time decoder must uphold.
func TestDecodedBundleEquivalence(t *testing.T) {
	runOnce := func(predecode bool) (*trace.Trace, uint64, uint64, float64) {
		w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 7})
		w.Runtime().SetPredecode(predecode)
		b, err := NewBundle(w.Runtime())
		if err != nil {
			t.Fatal(err)
		}
		BridgeSched(w.Machine(), w.Runtime())
		if err := b.StartInit(); err != nil {
			t.Fatal(err)
		}
		if err := b.StartRT(); err != nil {
			t.Fatal(err)
		}
		if err := b.StartKernel(true); err != nil {
			t.Fatal(err)
		}
		apps.BuildSYN(w, apps.SYNConfig{})
		apps.BuildAVP(w, apps.AVPConfig{})
		b.StopInit()
		w.Run(3 * sim.Second)
		tr := drainTrace(t, b)
		st := w.Runtime().Stats()
		return tr, st.Runs, st.Insns, w.Runtime().CostNs()
	}

	decTr, decRuns, decInsns, decCost := runOnce(true)
	rawTr, rawRuns, rawInsns, rawCost := runOnce(false)

	if decRuns != rawRuns {
		t.Fatalf("program runs diverged: decoded %d, raw %d", decRuns, rawRuns)
	}
	if decInsns != rawInsns {
		t.Fatalf("retired instructions diverged: decoded %d, raw %d", decInsns, rawInsns)
	}
	if decCost != rawCost {
		t.Fatalf("simulated probe cost diverged: decoded %v, raw %v", decCost, rawCost)
	}
	if len(decTr.Events) != len(rawTr.Events) {
		t.Fatalf("trace length diverged: decoded %d, raw %d", len(decTr.Events), len(rawTr.Events))
	}
	if len(decTr.Events) == 0 {
		t.Fatal("empty trace; session produced no events")
	}
	for i := range decTr.Events {
		if decTr.Events[i] != rawTr.Events[i] {
			t.Fatalf("event %d diverged:\ndecoded: %v\nraw:     %v",
				i, decTr.Events[i], rawTr.Events[i])
		}
	}
}
