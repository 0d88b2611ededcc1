package core_test

import (
	"reflect"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

func synTrace(t *testing.T, seed uint64, dur sim.Duration) *trace.Trace {
	t.Helper()
	w, b := tracedWorld(t, 8, seed)
	apps.BuildSYN(w, apps.SYNConfig{})
	w.Run(dur)
	return drainTrace(t, b)
}

// TestCanonicalKeysStableAcrossSeeds: the vertex identities must be
// identical between independent runs (different seeds, hence different
// callback handles and timings), or cross-run DAG merging would be
// meaningless.
func TestCanonicalKeysStableAcrossSeeds(t *testing.T) {
	d1 := core.BuildDAG(core.StreamModel(synTrace(t, 101, 8*sim.Second)))
	d2 := core.BuildDAG(core.StreamModel(synTrace(t, 202, 8*sim.Second)))
	k1, k2 := d1.VertexKeys(), d2.VertexKeys()
	if !reflect.DeepEqual(k1, k2) {
		t.Fatalf("vertex keys differ across seeds:\n%v\n%v", k1, k2)
	}
	e1, e2 := d1.Edges(), d2.Edges()
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("edges differ across seeds:\n%v\n%v", e1, e2)
	}
}

// TestSynthesisDeterministic: same seed, same everything.
func TestSynthesisDeterministic(t *testing.T) {
	tr1 := synTrace(t, 55, 5*sim.Second)
	tr2 := synTrace(t, 55, 5*sim.Second)
	if len(tr1.Events) != len(tr2.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(tr1.Events), len(tr2.Events))
	}
	for i := range tr1.Events {
		if tr1.Events[i] != tr2.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, tr1.Events[i], tr2.Events[i])
		}
	}
}

// TestMergeDAGsProperties: merging with an empty DAG is identity on
// structure; merge is commutative on vertex/edge sets and additive on
// instance counts.
func TestMergeDAGsProperties(t *testing.T) {
	a := core.BuildDAG(core.StreamModel(synTrace(t, 1, 5*sim.Second)))
	b := core.BuildDAG(core.StreamModel(synTrace(t, 2, 5*sim.Second)))

	ab := core.MergeDAGs(a, b)
	ba := core.MergeDAGs(b, a)
	if !reflect.DeepEqual(ab.VertexKeys(), ba.VertexKeys()) {
		t.Fatal("merge not commutative on vertices")
	}
	if !reflect.DeepEqual(ab.Edges(), ba.Edges()) {
		t.Fatal("merge not commutative on edges")
	}
	for _, k := range ab.VertexKeys() {
		va, vb := ab.Vertices[k], ba.Vertices[k]
		if va.Stats.Count != vb.Stats.Count || va.Stats.Min != vb.Stats.Min || va.Stats.Max != vb.Stats.Max {
			t.Fatalf("merge stats differ for %s", k)
		}
		sum := 0
		if x, ok := a.Vertices[k]; ok {
			sum += x.Stats.Count
		}
		if x, ok := b.Vertices[k]; ok {
			sum += x.Stats.Count
		}
		if va.Stats.Count != sum {
			t.Fatalf("instance counts not additive for %s: %d != %d", k, va.Stats.Count, sum)
		}
	}

	withEmpty := core.MergeDAGs(a, core.NewDAG(), nil)
	if !reflect.DeepEqual(withEmpty.VertexKeys(), a.VertexKeys()) {
		t.Fatal("merge with empty/nil changed vertices")
	}
}

// TestPerfBufferOverrunDegradesGracefully: with tiny perf buffers that are
// never drained mid-run, records are lost; extraction must not crash and
// must surface diagnostics rather than inventing callbacks.
func TestPerfBufferOverrunDegradesGracefully(t *testing.T) {
	// Build a raw trace and then truncate it mid-instance to simulate
	// record loss at the buffer boundary.
	tr := synTrace(t, 9, 5*sim.Second)
	// Drop a window of events in the middle (a burst overrun); the capped
	// slice makes append copy instead of overwriting tr.
	n := len(tr.Events)
	cut := &trace.Trace{Events: append(tr.Events[:n/2:n/2], tr.Events[n/2+200:]...)}

	m := core.StreamModel(cut)
	if len(m.Callbacks) == 0 {
		t.Fatal("no callbacks extracted from damaged trace")
	}
	// The damage is visible: either diagnostics, or fewer instances than
	// the undamaged trace yields.
	full := core.StreamModel(tr)
	fullInst, cutInst := 0, 0
	for _, cb := range full.Callbacks {
		fullInst += cb.Stats.Count
	}
	for _, cb := range m.Callbacks {
		cutInst += cb.Stats.Count
	}
	if cutInst >= fullInst {
		t.Fatalf("damaged trace produced %d instances vs %d full", cutInst, fullInst)
	}
	if len(m.Diags) == 0 {
		t.Log("no diagnostics emitted (cut may have fallen between instances)")
	}
}

// TestStrayEventsIgnored: end/take/write events without a preceding start
// must be skipped (the paper's CB.start != nil guards).
func TestStrayEventsIgnored(t *testing.T) {
	tr := &trace.Trace{}
	tr.Events = append(tr.Events,
		trace.Event{Time: 0, Seq: 0, PID: 5, Kind: trace.KindCreateNode, Node: "n"},
		trace.Event{Time: 10, Seq: 1, PID: 5, Kind: trace.KindSubCBEnd},                                // stray end
		trace.Event{Time: 11, Seq: 2, PID: 5, Kind: trace.KindTakeInt, CBID: 1, Topic: "/x", SrcTS: 5}, // stray take
		trace.Event{Time: 12, Seq: 3, PID: 5, Kind: trace.KindDDSWrite, Topic: "/y", SrcTS: 12},        // stray write
		trace.Event{Time: 13, Seq: 4, PID: 5, Kind: trace.KindTimerCall, CBID: 2},                      // stray timer call
		// A well-formed instance afterwards.
		trace.Event{Time: 20, Seq: 5, PID: 5, Kind: trace.KindSubCBStart},
		trace.Event{Time: 20, Seq: 6, PID: 5, Kind: trace.KindTakeInt, CBID: 3, Topic: "/x", SrcTS: 15},
		trace.Event{Time: 25, Seq: 7, PID: 5, Kind: trace.KindSubCBEnd},
	)
	m := core.StreamModel(tr)
	if len(m.Callbacks) != 1 {
		t.Fatalf("callbacks = %v", m.Callbacks)
	}
	cb := m.Callbacks[0]
	if cb.ID != 3 || cb.Stats.Count != 1 {
		t.Fatalf("wrong callback extracted: %v", cb)
	}
}

// TestDoubleStartDiagnosed: a start inside an open instance (lost end
// event) is reported and the new instance wins.
func TestDoubleStartDiagnosed(t *testing.T) {
	tr := &trace.Trace{}
	tr.Events = append(tr.Events,
		trace.Event{Time: 0, Seq: 0, PID: 5, Kind: trace.KindCreateNode, Node: "n"},
		trace.Event{Time: 10, Seq: 1, PID: 5, Kind: trace.KindSubCBStart},
		trace.Event{Time: 10, Seq: 2, PID: 5, Kind: trace.KindTakeInt, CBID: 1, Topic: "/x", SrcTS: 1},
		// end lost; next instance starts
		trace.Event{Time: 30, Seq: 3, PID: 5, Kind: trace.KindSubCBStart},
		trace.Event{Time: 30, Seq: 4, PID: 5, Kind: trace.KindTakeInt, CBID: 1, Topic: "/x", SrcTS: 2},
		trace.Event{Time: 35, Seq: 5, PID: 5, Kind: trace.KindSubCBEnd},
	)
	m := core.StreamModel(tr)
	if len(m.Diags) == 0 {
		t.Fatal("double start not diagnosed")
	}
	if len(m.Callbacks) != 1 || m.Callbacks[0].Stats.Count != 1 {
		t.Fatalf("callbacks = %v", m.Callbacks)
	}
	if m.Callbacks[0].Instances[0].Start != 30 {
		t.Fatalf("wrong instance survived: %+v", m.Callbacks[0].Instances[0])
	}
}

// TestLostRecordsWithTinyPerfBuffers injects real buffer overruns through
// the eBPF layer and checks the pipeline stays sound.
func TestLostRecordsWithTinyPerfBuffers(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 31})
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
	apps.BuildSYN(w, apps.SYNConfig{})

	// Drain very rarely so buffers would overrun if they were bounded; the
	// default unbounded buffers must not lose records.
	w.Run(5 * sim.Second)
	tr := drainTrace(t, b)
	if b.Lost() != 0 {
		t.Fatalf("lost %d records with unbounded buffers", b.Lost())
	}
	d := core.BuildDAG(core.StreamModel(tr))
	if len(d.Vertices) != apps.SYNExpectedVertices {
		t.Fatalf("vertices = %d", len(d.Vertices))
	}
}
