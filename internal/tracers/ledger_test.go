package tracers

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/faultinject"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// TestRingLedgerTerms checks the terms of the session loss ledger on a
// bounded, fault-injected bundle drained in several windows: after every
// drain each emission is either drained or lost (Emitted == drained +
// Lost), the per-CPU view sums to the bundle totals, and the worst-ring
// gauge is the largest single ring's backlog.
func TestRingLedgerTerms(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 5})
	b, err := NewBundleCapacity(w.Runtime(), 64)
	if err != nil {
		t.Fatal(err)
	}
	fault := faultinject.NewRingFault(9, 0.01, faultinject.Burst{AtOp: 500, Len: 50})
	b.SetRingFault(fault.Hook())
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

	var kc trace.KindCounter
	sawBacklog := false
	for i := 0; i < 6; i++ {
		w.Run(300 * sim.Millisecond)

		worst := 0
		for _, pb := range b.perfBuffers() {
			for cpu := 0; cpu < pb.NumRings(); cpu++ {
				worst = max(worst, pb.Ring(cpu).Pending)
			}
		}
		if pending, _ := b.MaxRingPending(); pending != worst {
			t.Fatalf("window %d: MaxRingPending %d, largest ring backlog %d", i, pending, worst)
		}
		sawBacklog = sawBacklog || worst > 0

		var perCPU, rings ebpf.RingStats
		for _, st := range b.PerCPU() {
			perCPU = plus(perCPU, st)
		}
		for _, pb := range b.perfBuffers() {
			rings = plus(rings, totals(pb))
		}
		if perCPU != rings || perCPU.Bytes != b.TraceBytes() || perCPU.Lost != b.Lost() {
			t.Fatalf("window %d: PerCPU sums to %+v; rings hold %+v, TraceBytes %d, Lost %d",
				i, perCPU, rings, b.TraceBytes(), b.Lost())
		}

		if err := b.StreamTo(&kc); err != nil {
			t.Fatal(err)
		}
		drained := uint64(kc.Total())
		if b.Emitted() != drained+b.Lost() {
			t.Fatalf("window %d: emitted %d != drained %d + lost %d", i, b.Emitted(), drained, b.Lost())
		}
	}
	if !sawBacklog {
		t.Fatal("no window left a backlog to compare")
	}
	if b.Lost() == 0 || fault.Drops() == 0 {
		t.Fatalf("lost %d (forced %d): the ledger's lost term was never exercised", b.Lost(), fault.Drops())
	}
}
