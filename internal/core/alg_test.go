package core

import (
	"testing"
	"testing/quick"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

func sw(t sim.Time, prev, next uint32) trace.Event {
	return trace.Event{Time: t, Kind: trace.KindSchedSwitch, PrevPID: prev, NextPID: next}
}

func TestExecTimeNoPreemption(t *testing.T) {
	// No switches inside the window: ET is the wall window.
	if got := ExecTime(100, 600, 0, 1<<62, 7, nil); got != 500 {
		t.Fatalf("ET = %v, want 500", got)
	}
}

func TestExecTimeSinglePreemption(t *testing.T) {
	sched := []trace.Event{
		sw(200, 7, 9), // preempted at 200
		sw(350, 9, 7), // resumed at 350
	}
	// Window [100, 600]: segments [100,200] + [350,600] = 100 + 250.
	if got := ExecTime(100, 600, 0, 1<<62, 7, sched); got != 350 {
		t.Fatalf("ET = %v, want 350", got)
	}
}

func TestExecTimeMultiplePreemptions(t *testing.T) {
	sched := []trace.Event{
		sw(10, 7, 1),
		sw(20, 1, 7),
		sw(30, 7, 1),
		sw(45, 1, 7),
		sw(70, 7, 1), // outside window [0,60]? No: 70 > 60, ignored
	}
	// [0,60]: [0,10]+[20,30]+[45,60] = 10+10+15 = 35.
	if got := ExecTime(0, 60, 0, 1<<62, 7, sched); got != 35 {
		t.Fatalf("ET = %v, want 35", got)
	}
}

func TestExecTimeIgnoresEventsOutsideWindow(t *testing.T) {
	sched := []trace.Event{
		sw(50, 7, 1), sw(80, 1, 7), // before window
		sw(700, 7, 1), // after window
	}
	if got := ExecTime(100, 600, 0, 1<<62, 7, sched); got != 500 {
		t.Fatalf("ET = %v, want 500", got)
	}
}

func TestExecTimeIgnoresOtherThreads(t *testing.T) {
	sched := []trace.Event{
		sw(200, 3, 4),
		sw(300, 4, 3),
	}
	if got := ExecTime(100, 600, 0, 1<<62, 7, sched); got != 500 {
		t.Fatalf("ET = %v, want 500", got)
	}
}

func TestExecTimeBoundaryEventsExcluded(t *testing.T) {
	// Events exactly at start/end don't alter the measurement (strict
	// inequalities in the paper's Algorithm 2).
	sched := []trace.Event{
		sw(100, 1, 7), // switch-in exactly at start
		sw(600, 7, 1), // switch-out exactly at end
	}
	if got := ExecTime(100, 600, 0, 1<<62, 7, sched); got != 500 {
		t.Fatalf("ET = %v, want 500", got)
	}
}

func TestExecTimeProperty(t *testing.T) {
	// Property: for alternating out/in switch pairs inside the window, ET
	// equals window minus preempted time and never exceeds the window.
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		start := sim.Time(1000)
		end := start.Add(sim.Duration(1000 + r.Intn(100000)))
		var sched []trace.Event
		var preempted sim.Duration
		cursor := start
		for {
			gap := sim.Duration(1 + r.Intn(5000))
			outAt := cursor.Add(gap)
			backAt := outAt.Add(sim.Duration(1 + r.Intn(3000)))
			if backAt >= end {
				break
			}
			sched = append(sched, sw(outAt, 7, 1), sw(backAt, 1, 7))
			preempted += backAt.Sub(outAt)
			cursor = backAt
		}
		got := ExecTime(start, end, 0, 1<<62, 7, sched)
		want := end.Sub(start) - preempted
		return got == want && got <= end.Sub(start)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// buildTrace constructs a hand-written trace exercising Algorithm 1
// directly: node 10 runs a timer publishing /a; node 20 subscribes /a.
func buildTrace() *trace.Trace {
	tr := &trace.Trace{}
	seq := uint64(0)
	add := func(e trace.Event) {
		e.Seq = seq
		seq++
		tr.Append(e)
	}
	add(trace.Event{Time: 0, PID: 10, Kind: trace.KindCreateNode, Node: "producer"})
	add(trace.Event{Time: 0, PID: 20, Kind: trace.KindCreateNode, Node: "consumer"})
	for i := 0; i < 3; i++ {
		base := sim.Time(1000 + i*1000)
		add(trace.Event{Time: base, PID: 10, Kind: trace.KindTimerCBStart})
		add(trace.Event{Time: base, PID: 10, Kind: trace.KindTimerCall, CBID: 0xA1})
		add(trace.Event{Time: base + 100, PID: 10, Kind: trace.KindDDSWrite, Topic: "/a", SrcTS: int64(base + 100)})
		add(trace.Event{Time: base + 100, PID: 10, Kind: trace.KindTimerCBEnd})
		add(trace.Event{Time: base + 150, PID: 20, Kind: trace.KindSubCBStart})
		add(trace.Event{Time: base + 150, PID: 20, Kind: trace.KindTakeInt, CBID: 0xB1, Topic: "/a", SrcTS: int64(base + 100)})
		add(trace.Event{Time: base + 350, PID: 20, Kind: trace.KindSubCBEnd})
	}
	return tr
}

func TestExtractModelBasics(t *testing.T) {
	tr := buildTrace()
	m := ExtractModel(tr)
	if len(m.Diags) != 0 {
		t.Fatalf("diagnostics: %v", m.Diags)
	}
	if len(m.Callbacks) != 2 {
		t.Fatalf("callbacks = %d: %v", len(m.Callbacks), m.Callbacks)
	}
	var timer, sub *Callback
	for _, cb := range m.Callbacks {
		switch cb.Type {
		case CBTimer:
			timer = cb
		case CBSubscriber:
			sub = cb
		}
	}
	if timer == nil || sub == nil {
		t.Fatal("missing callback types")
	}
	if timer.Node != "producer" || sub.Node != "consumer" {
		t.Errorf("nodes: %s/%s", timer.Node, sub.Node)
	}
	if timer.Stats.Count != 3 || sub.Stats.Count != 3 {
		t.Errorf("instance counts %d/%d", timer.Stats.Count, sub.Stats.Count)
	}
	// No sched events: ET = wall window.
	if timer.Stats.ACET() != 100 || sub.Stats.ACET() != 200 {
		t.Errorf("ACETs %v/%v", timer.Stats.ACET(), sub.Stats.ACET())
	}
	if !timer.HasOutTopic("/a") || sub.InTopic != "/a" {
		t.Errorf("topics: out=%v in=%q", timer.OutTopics, sub.InTopic)
	}
	if p := timer.EstimatePeriod(); p != 1000 {
		t.Errorf("period = %v", p)
	}
}

func TestBuildDAGSimpleEdge(t *testing.T) {
	d := Synthesize(buildTrace())
	if len(d.Vertices) != 2 {
		t.Fatalf("vertices = %v", d.VertexKeys())
	}
	edges := d.Edges()
	if len(edges) != 1 || edges[0].Topic != "/a" {
		t.Fatalf("edges = %v", edges)
	}
	from := d.Vertices[edges[0].From]
	to := d.Vertices[edges[0].To]
	if from.Type != CBTimer || to.Type != CBSubscriber {
		t.Fatalf("edge direction wrong: %v -> %v", from.Type, to.Type)
	}
}

func TestNonDispatchedClientInstanceDiscarded(t *testing.T) {
	tr := &trace.Trace{}
	seq := uint64(0)
	add := func(e trace.Event) {
		e.Seq = seq
		seq++
		tr.Append(e)
	}
	add(trace.Event{Time: 0, PID: 30, Kind: trace.KindCreateNode, Node: "client_b"})
	// A response arrives that belongs to another client: P12, P13, P14(0), P15.
	add(trace.Event{Time: 100, PID: 30, Kind: trace.KindClientCBStart})
	add(trace.Event{Time: 100, PID: 30, Kind: trace.KindTakeResponse, CBID: 0xC2, Topic: "sv", SrcTS: 50})
	add(trace.Event{Time: 101, PID: 30, Kind: trace.KindTakeTypeErased, Ret: 0})
	add(trace.Event{Time: 101, PID: 30, Kind: trace.KindClientCBEnd})
	m := ExtractModel(tr)
	if len(m.Callbacks) != 0 {
		t.Fatalf("non-dispatched instance produced callbacks: %v", m.Callbacks)
	}
}

func TestTruncatedInstanceDiagnosed(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(
		trace.Event{Time: 0, Seq: 0, PID: 5, Kind: trace.KindCreateNode, Node: "n"},
		trace.Event{Time: 10, Seq: 1, PID: 5, Kind: trace.KindSubCBStart},
		trace.Event{Time: 10, Seq: 2, PID: 5, Kind: trace.KindTakeInt, CBID: 1, Topic: "/x", SrcTS: 5},
		// no end: trace segment cut here
	)
	m := ExtractModel(tr)
	if len(m.Callbacks) != 0 {
		t.Fatal("truncated instance stored")
	}
	if len(m.Diags) != 1 {
		t.Fatalf("diags = %v", m.Diags)
	}
}

func TestStatsMergeAndPercentile(t *testing.T) {
	var a, b ExecStats
	for _, v := range []sim.Duration{5, 1, 3} {
		a.Add(v)
	}
	for _, v := range []sim.Duration{10, 2} {
		b.Add(v)
	}
	a.Merge(b)
	if a.Count != 5 || a.Min != 1 || a.Max != 10 {
		t.Fatalf("merged stats %+v", a)
	}
	if a.ACET() != (5+1+3+10+2)/5 {
		t.Fatalf("ACET = %v", a.ACET())
	}
	if p := a.Percentile(1.0); p != 10 {
		t.Fatalf("P100 = %v", p)
	}
	if p := a.Percentile(0); p != 1 {
		t.Fatalf("P0 = %v", p)
	}
}

func TestStatsMergeCommutesProperty(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		var a1, b1, a2, b2 ExecStats
		for _, x := range xs {
			a1.Add(sim.Duration(x))
			a2.Add(sim.Duration(x))
		}
		for _, y := range ys {
			b1.Add(sim.Duration(y))
			b2.Add(sim.Duration(y))
		}
		a1.Merge(b1) // a then b
		b2.Merge(a2) // b then a
		return a1.Count == b2.Count && a1.Min == b2.Min && a1.Max == b2.Max && a1.Sum == b2.Sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCanonicalKeysOrderCollisionsByFirst checks that colliding keys get
// their ordinal suffix in Callback.First order, not in model order.
func TestCanonicalKeysOrderCollisionsByFirst(t *testing.T) {
	late := &Callback{PID: 1, Node: "n", Type: CBTimer, ID: 1, OutTopics: []string{"/x"}, First: 20}
	early := &Callback{PID: 1, Node: "n", Type: CBTimer, ID: 2, OutTopics: []string{"/x"}, First: 10}
	keys := canonicalKeys([]*Callback{late, early})
	if keys[early] != "n|timer|/x|0" || keys[late] != "n|timer|/x|1" {
		t.Fatalf("keys: early %q, late %q", keys[early], keys[late])
	}
}
