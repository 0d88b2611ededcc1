package harness

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// messagePathSlack bounds the allocations a warm window may make beyond
// one per written sample: a delivery batch or queue slot the window's
// peak needs on top of the warm-up's. It is kept below the window's few
// message_filters matches, so a per-match allocation fails the test.
const messagePathSlack = 2

// TestMessagePathAllocsPerWrite pins the allocation-free message path:
// once a traced SYN+AVP world is warm, simulating and draining 200 ms
// allocates at most one object per DDS write (the Sample, which escapes
// to application callbacks) plus a small constant. Delivery batches,
// executor queues, callback contexts, service actions and the
// message_filters match scratch are all reused.
func TestMessagePathAllocsPerWrite(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 12, Seed: 3})
	b, err := tracers.NewBundle(w.Runtime())
	if err != nil {
		t.Fatal(err)
	}
	tracers.BridgeSched(w.Machine(), w.Runtime())
	for _, err := range []error{b.StartInit(), b.StartRT(), b.StartKernel(true)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	BuildBoth(1)(w)
	b.StopInit()
	var kc trace.KindCounter
	w.Run(2 * sim.Second)
	if err := b.StreamTo(&kc); err != nil {
		t.Fatal(err)
	}

	var writes uint64
	allocs := testing.AllocsPerRun(1, func() {
		w0 := kc.Count(trace.KindDDSWrite)
		w.Run(200 * sim.Millisecond)
		if err := b.StreamTo(&kc); err != nil {
			t.Fatal(err)
		}
		writes = uint64(kc.Count(trace.KindDDSWrite) - w0)
	})
	if writes == 0 {
		t.Fatal("no messages written in the window")
	}
	if max := float64(writes + messagePathSlack); allocs > max {
		t.Fatalf("%.0f allocations for %d writes in 200 ms, want at most %.0f", allocs, writes, max)
	}
	t.Logf("%.0f allocations for %d writes", allocs, writes)
}
