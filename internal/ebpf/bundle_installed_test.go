package ebpf_test

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/ebpf"
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
