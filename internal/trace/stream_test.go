package trace

import (
	"math/rand"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// randomSortedStreams builds n independently (Time, Seq)-sorted streams
// whose Seq values are globally unique, like perf rings sharing one
// emission counter.
func randomSortedStreams(rng *rand.Rand, n, maxLen int) []*Trace {
	seq := uint64(0)
	streams := make([]*Trace, n)
	for i := range streams {
		streams[i] = &Trace{}
	}
	// Round-robin with random skips, time advancing globally: every
	// stream ends up individually sorted.
	now := sim.Time(0)
	for placed := 0; placed < n*maxLen; placed++ {
		s := rng.Intn(n)
		for len(streams[s].Events) >= maxLen {
			s = (s + 1) % n
		}
		if rng.Intn(3) == 0 {
			now += sim.Time(rng.Intn(50))
		}
		streams[s].Events = append(streams[s].Events, Event{
			Time: now,
			Seq:  seq,
			PID:  uint32(100 + s),
			Kind: KindSchedSwitch,
			CPU:  int32(s),
		})
		seq++
	}
	return streams
}

// TestMergeStreamMatchesReference pins the streaming merge to the
// concatenate-then-stable-sort oracle, event for event, across random
// stream counts.
func TestMergeStreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		streams := randomSortedStreams(rng, n, 1+rng.Intn(60))
		want := referenceMerge(streams...)
		got := mergeStreams(t, streams...)
		if len(got.Events) != len(want.Events) {
			t.Fatalf("trial %d: stream merged %d events, reference %d", trial, len(got.Events), len(want.Events))
		}
		for i := range want.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("trial %d: event %d differs:\n stream:    %v\n reference: %v",
					trial, i, got.Events[i], want.Events[i])
			}
		}
	}
}

// TestMergeStreamTieBreak pins tie resolution: equal (Time, Seq) pairs
// resolve to the earlier cursor, the stable sort's behaviour.
func TestMergeStreamTieBreak(t *testing.T) {
	a := &Trace{Events: []Event{{Time: 5, Seq: 1, PID: 1}, {Time: 9, Seq: 3, PID: 1}}}
	b := &Trace{Events: []Event{{Time: 5, Seq: 1, PID: 2}, {Time: 9, Seq: 3, PID: 2}}}
	var col Collector
	err := NewMergeStream(&SliceCursor{Events: a.Events}, &SliceCursor{Events: b.Events}).Run(&col)
	if err != nil {
		t.Fatal(err)
	}
	wantPIDs := []uint32{1, 2, 1, 2}
	for i, e := range col.Trace.Events {
		if e.PID != wantPIDs[i] {
			t.Fatalf("tie-break broken at %d: got PID %d, want %d", i, e.PID, wantPIDs[i])
		}
	}
}

// TestMergeStreamBufferBound checks the merge never holds more than one
// event per input stream, regardless of total stream length.
func TestMergeStreamBufferBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	streams := randomSortedStreams(rng, 9, 500)
	curs := make([]Cursor, len(streams))
	for i, s := range streams {
		curs[i] = &SliceCursor{Events: s.Events}
	}
	m := NewMergeStream(curs...)
	total, maxBuf := 0, 0
	if err := m.Run(SinkFunc(func(Event) {
		total++
		if b := len(m.heap); b > maxBuf {
			maxBuf = b
		}
	})); err != nil {
		t.Fatal(err)
	}
	if total != 9*500 {
		t.Fatalf("merged %d events, want %d", total, 9*500)
	}
	if maxBuf > len(streams) {
		t.Fatalf("merge buffered %d events; bound is one per stream (%d)", maxBuf, len(streams))
	}
}

// TestKindCounterAndMultiSink exercises the tee and the counting sink
// against a collector on the same stream.
func TestKindCounterAndMultiSink(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	streams := randomSortedStreams(rng, 3, 40)
	streams[0].Events[0].Kind = KindCreateNode

	var kc KindCounter
	var col Collector
	curs := make([]Cursor, len(streams))
	for i, s := range streams {
		curs[i] = &SliceCursor{Events: s.Events}
	}
	if err := NewMergeStream(curs...).Run(MultiSink(&kc, nil, &col)); err != nil {
		t.Fatal(err)
	}
	if kc.Total() != len(col.Trace.Events) {
		t.Fatalf("counter saw %d events, collector %d", kc.Total(), len(col.Trace.Events))
	}
	if kc.Count(KindCreateNode) != 1 {
		t.Fatalf("KindCreateNode count = %d, want 1", kc.Count(KindCreateNode))
	}
	if kc.Count(KindSchedSwitch) != len(col.Trace.Events)-1 {
		t.Fatalf("KindSchedSwitch count = %d, want %d", kc.Count(KindSchedSwitch), len(col.Trace.Events)-1)
	}
}
