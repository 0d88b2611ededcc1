package tracers

import (
	"slices"
	"sort"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// tracedSession boots a deterministic SYN+AVP world with all three
// tracers attached and runs it, leaving the perf rings full and
// undrained.
func tracedSession(t *testing.T, seed uint64) *Bundle {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 6, Seed: seed})
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
	apps.BuildAVP(w, apps.AVPConfig{})
	apps.BuildSYN(w, apps.SYNConfig{})
	b.StopInit()
	w.Run(4 * sim.Second)
	return b
}

// preSplitDrain reproduces the single-buffer implementation the drain
// had before the per-CPU split: each tracer's records in one
// emission-ordered stream (its rings sorted by (Time, Seq), which the
// buffer's emission counter makes emission order), the three streams
// merged. It is the reference the per-CPU drain must match byte for
// byte.
func preSplitDrain(t *testing.T, b *Bundle) *trace.Trace {
	t.Helper()
	var streams [3]*trace.Trace
	for i, pb := range b.perfBuffers() {
		var recs []ebpf.PerfRecord
		for cpu := 0; cpu < pb.NumRings(); cpu++ {
			recs = append(recs, ringRecords(pb, cpu)...)
		}
		sort.SliceStable(recs, func(i, j int) bool {
			if recs[i].Time != recs[j].Time {
				return recs[i].Time < recs[j].Time
			}
			return recs[i].Seq < recs[j].Seq
		})
		streams[i] = decodeRecords(t, recs)
	}
	return referenceMerge(streams[0], streams[1], streams[2])
}

// TestPerCPUDrainMatchesPreSplit runs two identical sessions and drains
// one through the per-CPU Bundle.StreamTo (3×NCPU ring streams merged) and
// the other through the pre-split reference. Event order and content
// must be identical — the acceptance bar for the ring split.
func TestPerCPUDrainMatchesPreSplit(t *testing.T) {
	const seed = 42
	bundleNew := tracedSession(t, seed)
	bundleRef := tracedSession(t, seed)

	got := drainTrace(t, bundleNew)
	want := preSplitDrain(t, bundleRef)

	if len(got.Events) == 0 {
		t.Fatal("session produced no events")
	}
	if len(got.Events) != len(want.Events) {
		t.Fatalf("per-CPU drain has %d events, pre-split %d", len(got.Events), len(want.Events))
	}
	for i := range want.Events {
		if got.Events[i] != want.Events[i] {
			t.Fatalf("event %d differs:\n per-CPU:  %v\n pre-split: %v",
				i, got.Events[i], want.Events[i])
		}
	}

	// The merged drain must also be its own (Time, Seq) sort — the global
	// chronological order Algorithm 1 requires.
	if !slices.IsSortedFunc(got.Events, byTimeSeq) {
		t.Fatal("drain output not (Time, Seq) sorted")
	}
}

// plus adds two ring accountings.
func plus(a, b ebpf.RingStats) ebpf.RingStats {
	return ebpf.RingStats{Pending: a.Pending + b.Pending, Lost: a.Lost + b.Lost, Bytes: a.Bytes + b.Bytes}
}

// totals sums pb's per-CPU ring accounting.
func totals(pb *ebpf.PerfBuffer) (t ebpf.RingStats) {
	for cpu := 0; cpu < pb.NumRings(); cpu++ {
		t = plus(t, pb.Ring(cpu))
	}
	return t
}

// TestBundleRingsSpreadAcrossCPUs checks the split is real: a
// multi-CPU session materializes more than one ring on the RT tracer and
// the per-CPU byte accounting sums to the bundle totals.
func TestBundleRingsSpreadAcrossCPUs(t *testing.T) {
	b := tracedSession(t, 7)
	if rings := b.rtPB.NumRings(); rings < 2 {
		t.Fatalf("RT tracer materialized %d rings; events all landed on one CPU", rings)
	}
	var sum uint64
	active := 0
	for _, st := range b.PerCPU() {
		sum += st.Bytes
		if st.Bytes > 0 {
			active++
		}
		if st.Lost != 0 {
			t.Fatal("unbounded rings lost records")
		}
	}
	if sum != b.TraceBytes() {
		t.Fatalf("per-CPU bytes sum %d != TraceBytes %d", sum, b.TraceBytes())
	}
	if active < 2 {
		t.Fatalf("only %d CPUs emitted; expected a multi-CPU spread", active)
	}
}
