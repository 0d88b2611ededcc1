package tracers

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// randomTracedWorld boots a world running a random pipeline plus
// background load under all three tracers — a workload whose topology
// varies with the seed, for property-style equivalence checks.
func randomTracedWorld(t *testing.T, seed uint64) (*rclcpp.World, *Bundle) {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: seed})
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
	rng := sim.NewRNG(seed * 977)
	apps.BuildRandomPipeline(w, rng, 1+int(seed%3), 1+int(seed%4))
	apps.BackgroundLoad(w, 2, 8, 0, 5*sim.Millisecond, 500*sim.Microsecond)
	b.StopInit()
	return w, b
}

// batchDrain is the pre-streaming Drain: decode every ring segment into
// a per-ring event slice, then batch-merge. It is the reference the
// streaming drain must match byte for byte.
func batchDrain(t *testing.T, b *Bundle) *trace.Trace {
	t.Helper()
	var streams []*trace.Trace
	for _, pb := range b.perfBuffers() {
		for cpu := 0; cpu < pb.NumRings(); cpu++ {
			recs := pb.DrainCPU(cpu)
			if len(recs) == 0 {
				continue
			}
			tr := &trace.Trace{Events: make([]trace.Event, 0, len(recs))}
			for _, rec := range recs {
				var ev trace.Event
				if err := DecodeRecord(rec, &ev); err != nil {
					t.Fatal(err)
				}
				tr.Events = append(tr.Events, ev)
			}
			streams = append(streams, tr)
		}
	}
	return referenceMerge(streams...)
}

// referenceMerge is the merge oracle, independent of trace.MergeStream:
// concatenate the streams and stable-sort by (Time, Seq), so ties keep
// the earlier stream's event first.
func referenceMerge(streams ...*trace.Trace) *trace.Trace {
	out := &trace.Trace{}
	for _, s := range streams {
		out.Events = append(out.Events, s.Events...)
	}
	out.SortByTime()
	return out
}

// TestStreamToMatchesBatchDrain is the streaming-equivalence property
// test: across random app workloads, StreamTo into a collector yields
// exactly the trace the batch drain builds — same events, same order.
func TestStreamToMatchesBatchDrain(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		wS, bS := randomTracedWorld(t, seed)
		wB, bB := randomTracedWorld(t, seed)
		wS.Run(2 * sim.Second)
		wB.Run(2 * sim.Second)

		var col trace.Collector
		if err := bS.StreamTo(&col); err != nil {
			t.Fatal(err)
		}
		got := &col.Trace
		want := batchDrain(t, bB)

		if got.Len() == 0 {
			t.Fatalf("seed %d: streamed session produced no events", seed)
		}
		if got.Len() != want.Len() {
			t.Fatalf("seed %d: streamed %d events, batch %d", seed, got.Len(), want.Len())
		}
		for i := range want.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("seed %d: event %d differs:\n stream: %v\n batch:  %v",
					seed, i, got.Events[i], want.Events[i])
			}
		}
	}
}

// TestStreamToDrainWrapperIdentity checks the Drain compatibility
// wrapper returns the streamed events exactly, sized without append
// growth.
func TestStreamToDrainWrapperIdentity(t *testing.T) {
	w1, b1 := randomTracedWorld(t, 9)
	w2, b2 := randomTracedWorld(t, 9)
	w1.Run(sim.Second)
	w2.Run(sim.Second)

	got, err := b1.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var col trace.Collector
	if err := b2.StreamTo(&col); err != nil {
		t.Fatal(err)
	}
	if got.Len() != col.Trace.Len() {
		t.Fatalf("Drain %d events, StreamTo %d", got.Len(), col.Trace.Len())
	}
	for i := range got.Events {
		if got.Events[i] != col.Trace.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	if cap(got.Events) != len(got.Events) {
		t.Errorf("Drain over-allocated: cap %d for %d events", cap(got.Events), len(got.Events))
	}
}

// TestPeriodicStreamBoundsBuffering drives one session with periodic
// segment drains and checks (a) the concatenated segment streams equal
// one whole-run drain of an identical session, and (b) peak buffered
// records — the largest undrained ring backlog ever observed — stay
// bounded by what a single period emits, far below the whole-run total.
func TestPeriodicStreamBoundsBuffering(t *testing.T) {
	wSeg, bSeg := randomTracedWorld(t, 4)
	wAll, bAll := randomTracedWorld(t, 4)

	const periods = 8
	total := 4 * sim.Second
	var col trace.Collector
	peakPending := 0
	perSegment := make([]int, 0, periods)
	for i := 0; i < periods; i++ {
		wSeg.Run(total / periods)
		pending := 0
		for _, pb := range bSeg.perfBuffers() {
			pending += pb.Pending()
		}
		if pending > peakPending {
			peakPending = pending
		}
		before := col.Trace.Len()
		if err := bSeg.StreamTo(&col); err != nil {
			t.Fatal(err)
		}
		perSegment = append(perSegment, col.Trace.Len()-before)
	}

	wAll.Run(total)
	whole, err := bAll.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if col.Trace.Len() != whole.Len() {
		t.Fatalf("segmented stream has %d events, whole-run %d", col.Trace.Len(), whole.Len())
	}
	for i := range whole.Events {
		if col.Trace.Events[i] != whole.Events[i] {
			t.Fatalf("event %d differs between segmented and whole-run drain", i)
		}
	}
	maxSeg := 0
	for _, n := range perSegment {
		if n > maxSeg {
			maxSeg = n
		}
	}
	if peakPending > maxSeg {
		t.Fatalf("peak pending backlog %d exceeds largest segment %d", peakPending, maxSeg)
	}
	if whole.Len() < 4*peakPending {
		t.Fatalf("segmentation did not bound buffering: peak %d vs total %d", peakPending, whole.Len())
	}
}
