package trace

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// synthTrace builds a deterministic pseudo-random trace. sorted controls
// whether it comes out in (Time, Seq) order.
func synthTrace(seed uint64, n int, sorted bool) *Trace {
	state := seed | 1
	next := func(m int) int {
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return int((state * 0x2545f4914f6cdd1d) >> 33 % uint64(m))
	}
	tr := &Trace{}
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		now += sim.Time(next(3)) // duplicate times are common and must tie-break on Seq
		e := Event{
			Time: now,
			Seq:  seed*1e6 + uint64(i),
			PID:  uint32(next(4) + 1),
			Kind: Kind(next(int(numKinds)-1) + 1),
		}
		tr.Events = append(tr.Events, e)
	}
	if !sorted {
		// Deterministic shuffle.
		for i := len(tr.Events) - 1; i > 0; i-- {
			j := next(i + 1)
			tr.Events[i], tr.Events[j] = tr.Events[j], tr.Events[i]
		}
	}
	return tr
}

// referenceMerge is the original concatenate-then-stable-sort semantics.
func referenceMerge(traces ...*Trace) *Trace {
	out := &Trace{}
	for _, t := range traces {
		if t != nil {
			out.Events = append(out.Events, t.Events...)
		}
	}
	sortByTime(out.Events)
	return out
}

// mergeStreams merges (Time, Seq)-sorted traces the one way the
// package merges: MergeStream over SliceCursors into a Collector.
func mergeStreams(t testing.TB, traces ...*Trace) *Trace {
	t.Helper()
	curs := make([]Cursor, 0, len(traces))
	for _, tr := range traces {
		if tr != nil {
			curs = append(curs, &SliceCursor{Events: tr.Events})
		}
	}
	var col Collector
	if err := NewMergeStream(curs...).Run(&col); err != nil {
		t.Fatal(err)
	}
	return &col.Trace
}

func TestMergeMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		traces []*Trace
	}{
		{"nil and empty", []*Trace{nil, {}, nil}},
		{"single sorted", []*Trace{synthTrace(1, 50, true)}},
		{"two sorted", []*Trace{synthTrace(1, 50, true), synthTrace(2, 70, true)}},
		{"four sorted segments", []*Trace{
			synthTrace(3, 40, true), synthTrace(4, 1, true),
			synthTrace(5, 0, true), synthTrace(6, 90, true),
		}},
		{"eight sorted segments", []*Trace{
			synthTrace(7, 60, true), synthTrace(8, 30, true), synthTrace(9, 25, true),
			synthTrace(10, 25, true), synthTrace(11, 5, true), synthTrace(12, 0, true),
			synthTrace(13, 44, true), synthTrace(14, 80, true),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := mergeStreams(t, tc.traces...)
			want := referenceMerge(tc.traces...)
			if len(got.Events) != len(want.Events) {
				t.Fatalf("len %d, want %d", len(got.Events), len(want.Events))
			}
			for i := range want.Events {
				if got.Events[i] != want.Events[i] {
					t.Fatalf("event %d: got %v, want %v", i, got.Events[i], want.Events[i])
				}
			}
		})
	}
}

// TestMergeTieBreaksByInputOrder pins the stable-merge guarantee: events
// with identical (Time, Seq) keep the order of their input traces.
func TestMergeTieBreaksByInputOrder(t *testing.T) {
	a := &Trace{Events: []Event{{Time: 5, Seq: 1, PID: 100}}}
	b := &Trace{Events: []Event{{Time: 5, Seq: 1, PID: 200}}}
	m := mergeStreams(t, a, b)
	if len(m.Events) != 2 || m.Events[0].PID != 100 || m.Events[1].PID != 200 {
		t.Fatalf("tie order broken: %v", m.Events)
	}
}

// TestMergeDoesNotAliasInputs checks the merged trace owns its storage:
// SliceCursor hands out pointers into its input, and the by-value
// Observe is where the merge copies.
func TestMergeDoesNotAliasInputs(t *testing.T) {
	a := synthTrace(11, 10, true)
	m := mergeStreams(t, a)
	m.Events[0].PID = 999
	if a.Events[0].PID == 999 {
		t.Fatal("merge aliases its input's event storage")
	}
}
