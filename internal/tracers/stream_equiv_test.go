package tracers

import (
	"cmp"
	"slices"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/ebpf"
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

// drainTrace drains every tracer ring of b through StreamTo into one
// (Time, Seq)-ordered trace.
func drainTrace(t *testing.T, b *Bundle) *trace.Trace {
	t.Helper()
	var col trace.Collector
	if err := b.StreamTo(&col); err != nil {
		t.Fatal(err)
	}
	return &col.Trace
}

// ringRecords drains one CPU's ring of pb through DrainCursorInto and
// returns its records in emission order. The cursor is never released,
// so the records keep their arena chunks and may be retained.
func ringRecords(pb *ebpf.PerfBuffer, cpu int) []ebpf.PerfRecord {
	var c ebpf.RecordCursor
	pb.DrainCursorInto(&c, cpu)
	var out []ebpf.PerfRecord
	for rec, ok := c.Next(); ok; rec, ok = c.Next() {
		out = append(out, rec)
	}
	return out
}

// decodeRecords decodes records into a trace, in the given order.
func decodeRecords(t *testing.T, recs []ebpf.PerfRecord) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{Events: make([]trace.Event, len(recs))}
	for i, rec := range recs {
		if err := DecodeRecord(rec, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// sortedRingDrain is the reference the streaming drain must match byte
// for byte: decode every ring segment into a per-ring event slice, then
// merge the slices with referenceMerge.
func sortedRingDrain(t *testing.T, b *Bundle) *trace.Trace {
	t.Helper()
	var streams []*trace.Trace
	for _, pb := range b.perfBuffers() {
		for cpu := 0; cpu < pb.NumRings(); cpu++ {
			streams = append(streams, decodeRecords(t, ringRecords(pb, cpu)))
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
	slices.SortStableFunc(out.Events, byTimeSeq)
	return out
}

// byTimeSeq orders events by (Time, Seq), Algorithm 1's chronological
// order.
func byTimeSeq(a, b trace.Event) int {
	return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Seq, b.Seq))
}

// TestStreamToMatchesSortedRings is the streaming-equivalence property
// test: across random app workloads, StreamTo into a collector yields
// exactly the trace sortedRingDrain builds — same events, same order.
func TestStreamToMatchesSortedRings(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		wS, bS := randomTracedWorld(t, seed)
		wB, bB := randomTracedWorld(t, seed)
		wS.Run(2 * sim.Second)
		wB.Run(2 * sim.Second)

		got := drainTrace(t, bS)
		want := sortedRingDrain(t, bB)

		if len(got.Events) == 0 {
			t.Fatalf("seed %d: streamed session produced no events", seed)
		}
		if len(got.Events) != len(want.Events) {
			t.Fatalf("seed %d: streamed %d events, reference %d", seed, len(got.Events), len(want.Events))
		}
		for i := range want.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("seed %d: event %d differs:\n stream:    %v\n reference: %v",
					seed, i, got.Events[i], want.Events[i])
			}
		}
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
			pending += totals(pb).Pending
		}
		if pending > peakPending {
			peakPending = pending
		}
		before := len(col.Trace.Events)
		if err := bSeg.StreamTo(&col); err != nil {
			t.Fatal(err)
		}
		perSegment = append(perSegment, len(col.Trace.Events)-before)
	}

	wAll.Run(total)
	whole := drainTrace(t, bAll)
	if len(col.Trace.Events) != len(whole.Events) {
		t.Fatalf("segmented stream has %d events, whole-run %d", len(col.Trace.Events), len(whole.Events))
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
	if len(whole.Events) < 4*peakPending {
		t.Fatalf("segmentation did not bound buffering: peak %d vs total %d", peakPending, len(whole.Events))
	}
}
