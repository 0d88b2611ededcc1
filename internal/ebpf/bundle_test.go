package ebpf_test

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// bundlePrograms is how many programs tracers.NewBundle loads: P1, the
// eighteen TR_RT programs (P2–P16, the three takes split into entry and
// exit), and the filtered and unfiltered sched_switch and the
// sched_wakeup programs.
const bundlePrograms = 22

// TestBundleInstalledInvariants checks the installed form of every
// program the tracer bundle loads against the invariants the decoded VM
// runs on without re-checking them.
func TestBundleInstalledInvariants(t *testing.T) {
	rt := ebpf.NewRuntime(nil, nil)
	b, err := tracers.NewBundle(rt)
	if err != nil {
		t.Fatal(err)
	}
	// Attaching every tracer, in both kernel variants, reaches each
	// loaded program through the runtime's attachment lists.
	for _, start := range []func() error{
		b.StartInit, b.StartRT,
		func() error { return b.StartKernel(true) },
		func() error { return b.StartKernel(false) },
	} {
		if err := start(); err != nil {
			t.Fatal(err)
		}
	}
	progs := ebpf.AttachedPrograms(rt)
	if len(progs) != bundlePrograms {
		t.Fatalf("reached %d programs, want %d", len(progs), bundlePrograms)
	}
	for _, p := range progs {
		ebpf.CheckInstalled(t, p)
	}
}

// TestDecodedBundleEquivalence runs the full tracer bundle over a traced
// SYN+AVP session twice — once through the installed dispatch form and
// once through the raw reference interpreter — and demands identical
// traces and identical runtime accounting. This is the program-bundle
// level equivalence guarantee the load-time decoder must uphold.
func TestDecodedBundleEquivalence(t *testing.T) {
	runOnce := func(reference bool) (*trace.Trace, uint64, uint64, float64) {
		w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 7})
		if reference {
			ebpf.UseRawReference(w.Runtime())
		}
		b, err := tracers.NewBundle(w.Runtime())
		if err != nil {
			t.Fatal(err)
		}
		tracers.BridgeSched(w.Machine(), w.Runtime())
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
		var col trace.Collector
		if err := b.StreamTo(&col); err != nil {
			t.Fatal(err)
		}
		st := w.Runtime().Stats()
		return &col.Trace, st.Runs, st.Insns, w.Runtime().CostNs()
	}

	decTr, decRuns, decInsns, decCost := runOnce(false)
	rawTr, rawRuns, rawInsns, rawCost := runOnce(true)

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
