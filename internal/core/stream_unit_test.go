package core

import (
	"reflect"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// streamModel feeds a (Time, Seq)-sorted trace through the incremental
// builder, the way the streaming drain would.
func streamModel(tr *trace.Trace) *Model {
	mb := NewModelBuilder()
	for _, e := range tr.Events {
		mb.Observe(e)
	}
	return mb.Finish()
}

// requireSameModel fails unless the two models are deeply identical.
func requireSameModel(t *testing.T, got, want *Model) {
	t.Helper()
	if !reflect.DeepEqual(got.NodeOf, want.NodeOf) {
		t.Fatalf("NodeOf differs: %v vs %v", got.NodeOf, want.NodeOf)
	}
	if len(got.Callbacks) != len(want.Callbacks) {
		t.Fatalf("callback count %d vs %d", len(got.Callbacks), len(want.Callbacks))
	}
	for i := range want.Callbacks {
		if !reflect.DeepEqual(got.Callbacks[i], want.Callbacks[i]) {
			t.Fatalf("callback %d differs:\n stream: %+v\n batch:  %+v",
				i, got.Callbacks[i], want.Callbacks[i])
		}
	}
	if !reflect.DeepEqual(got.Diags, want.Diags) {
		t.Fatalf("diagnostics differ: %v vs %v", got.Diags, want.Diags)
	}
}

// TestModelBuilderMatchesExtractModelSimple pins the streaming builder
// to the batch extraction on the hand-written producer/consumer trace.
func TestModelBuilderMatchesExtractModelSimple(t *testing.T) {
	tr := buildTrace()
	requireSameModel(t, streamModel(tr), BatchExtractModel(tr))
}

// TestModelBuilderBoundarySwitches exercises the (Time, Seq) window
// bracketing Algorithm 2 needs when switches share a timestamp with the
// start or end probe: emitted-before-start and emitted-after-end
// switches must not count, emitted-inside ones must.
func TestModelBuilderBoundarySwitches(t *testing.T) {
	tr := &trace.Trace{}
	seq := uint64(0)
	add := func(e trace.Event) {
		e.Seq = seq
		seq++
		tr.Append(e)
	}
	add(trace.Event{Time: 0, PID: 7, Kind: trace.KindCreateNode, Node: "n"})
	// Switch out at t=100 emitted BEFORE the start probe at t=100: the
	// callback had not started; must be ignored.
	add(trace.Event{Time: 100, Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 1})
	add(trace.Event{Time: 100, PID: 7, Kind: trace.KindTimerCBStart})
	add(trace.Event{Time: 100, PID: 7, Kind: trace.KindTimerCall, CBID: 0xC})
	// Preemption inside the window, sharing the start timestamp but
	// emitted after the start probe: counts.
	add(trace.Event{Time: 100, Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 1})
	add(trace.Event{Time: 160, Kind: trace.KindSchedSwitch, PrevPID: 1, NextPID: 7})
	// Same thread as prev and next (yield to self): suspend wins.
	add(trace.Event{Time: 180, Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 7})
	add(trace.Event{Time: 190, Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 7})
	add(trace.Event{Time: 200, PID: 7, Kind: trace.KindTimerCBEnd})
	// Switch at the end timestamp emitted after the end probe: ignored.
	add(trace.Event{Time: 200, Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 1})

	got, want := streamModel(tr), BatchExtractModel(tr)
	requireSameModel(t, got, want)
	if len(want.Callbacks) != 1 || len(want.Callbacks[0].Instances) != 1 {
		t.Fatalf("unexpected extraction shape: %+v", want.Callbacks)
	}
	// Window [100,200]: on-CPU [100,100] + [160,180] + [190,200] = 30.
	if et := want.Callbacks[0].Instances[0].ET; et != 30 {
		t.Fatalf("batch ET = %v, want 30", et)
	}
}

// TestModelBuilderRandomInterleavings is the extraction-level property
// test: random sorted interleavings of callback windows and switches
// over several PIDs produce byte-identical models through both paths.
// The second PID set straddles the engine's dense PID table and its map
// fallback.
func TestModelBuilderRandomInterleavings(t *testing.T) {
	for _, pids := range [][]uint32{{7, 8, 9}, {7, densePIDs - 1, densePIDs, 1 << 20}} {
		testRandomInterleavings(t, pids)
	}
}

func testRandomInterleavings(t *testing.T, pids []uint32) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := sim.NewRNG(seed)
		tr := &trace.Trace{}
		seq := uint64(0)
		add := func(e trace.Event) {
			e.Seq = seq
			seq++
			tr.Append(e)
		}
		for i, pid := range pids {
			add(trace.Event{Time: 0, PID: pid, Kind: trace.KindCreateNode,
				Node: string(rune('a' + i))})
		}
		now := sim.Time(10)
		inWindow := map[uint32]bool{}
		for step := 0; step < 400; step++ {
			if r.Intn(3) > 0 {
				now += sim.Time(r.Intn(40))
			}
			pid := pids[r.Intn(len(pids))]
			switch r.Intn(4) {
			case 0: // toggle a window
				if inWindow[pid] {
					add(trace.Event{Time: now, PID: pid, Kind: trace.KindTimerCBEnd})
					inWindow[pid] = false
				} else {
					add(trace.Event{Time: now, PID: pid, Kind: trace.KindTimerCBStart})
					add(trace.Event{Time: now, PID: pid, Kind: trace.KindTimerCall,
						CBID: uint64(pid)})
					inWindow[pid] = true
				}
			case 1: // switch away to an uninvolved thread
				add(trace.Event{Time: now, Kind: trace.KindSchedSwitch,
					PrevPID: pid, NextPID: 1})
			case 2: // switch back from an uninvolved thread
				add(trace.Event{Time: now, Kind: trace.KindSchedSwitch,
					PrevPID: 1, NextPID: pid})
			case 3: // direct handoff between two traced threads
				other := pids[r.Intn(len(pids))]
				add(trace.Event{Time: now, Kind: trace.KindSchedSwitch,
					PrevPID: pid, NextPID: other})
			}
		}
		for _, pid := range pids {
			if inWindow[pid] {
				add(trace.Event{Time: now + 5, PID: pid, Kind: trace.KindTimerCBEnd})
			}
		}
		requireSameModel(t, streamModel(tr), BatchExtractModel(tr))
	}
}

// serviceTraffic generates a random (Time, Seq)-sorted trace of
// multi-client service exchanges. Two servers each offer a service to a
// set of clients; in exchange k a timer callback of one client writes a
// request, the server's service callback takes it and writes the
// response, and every client of the service runs a client callback that
// takes the response and reports dispatch 1 (the requester) or 0 (the
// others, whose instance Algorithm 1 discards). The PIDs' callbacks
// interleave at random, subject only to causality (a take follows the
// write it reads), with sched switches between them. Noise exercises
// the diagnostics and the search rules: a timer without its P3 call (no
// caller), a requester that never runs its client callback (no
// dispatched client), a second timer writing a colliding request,
// a stray second dispatch of one response, and extra plain-topic
// writes.
func serviceTraffic(seed uint64) *trace.Trace {
	r := sim.NewRNG(seed)
	type step struct {
		e     trace.Event
		needs *bool // emit only once *needs is true
	}
	type service struct {
		name    string
		server  uint32
		id      uint64
		clients []uint32
	}
	services := []service{
		{"svcA", 10, 0xA0, []uint32{20, 21, 22}},
		{"svcB", 11, 0xB0, []uint32{21, 22}},
	}
	scripts := map[uint32][]step{}
	pids := []uint32{10, 11, 20, 21, 22}
	// written flags a request or response write once emitted.
	written := map[topicTS]*bool{}
	instance := func(pid uint32, needs *bool, evs ...trace.Event) {
		for i, e := range evs {
			e.PID = pid
			st := step{e: e}
			if i == 0 {
				st.needs = needs
			}
			scripts[pid] = append(scripts[pid], st)
		}
	}
	exchanges := 20 + r.Intn(30)
	for k := 0; k < exchanges; k++ {
		sv := services[r.Intn(len(services))]
		si := uint64(sv.id >> 4)
		requester := sv.clients[r.Intn(len(sv.clients))]
		reqTS, respTS := int64(1000+2*k), int64(1001+2*k)
		reqDone, respDone := new(bool), new(bool)
		written[topicTS{dds.ServiceRequestTopic(sv.name), reqTS}] = reqDone
		written[topicTS{dds.ServiceResponseTopic(sv.name), respTS}] = respDone

		timer := []trace.Event{{Kind: trace.KindTimerCBStart}}
		if r.Intn(10) > 0 {
			timer = append(timer, trace.Event{Kind: trace.KindTimerCall, CBID: uint64(requester)<<8 | si})
		}
		timer = append(timer, trace.Event{Kind: trace.KindDDSWrite, Topic: dds.ServiceRequestTopic(sv.name), SrcTS: reqTS})
		if r.Intn(8) == 0 {
			timer = append(timer, trace.Event{Kind: trace.KindDDSWrite, Topic: "/log", SrcTS: reqTS})
		}
		timer = append(timer, trace.Event{Kind: trace.KindTimerCBEnd})
		instance(requester, nil, timer...)
		if r.Intn(10) == 0 {
			// A colliding request from another timer: the first write of
			// (topic, srcTS) names the caller, whichever PID it came from.
			other := sv.clients[r.Intn(len(sv.clients))]
			instance(other, nil,
				trace.Event{Kind: trace.KindTimerCBStart},
				trace.Event{Kind: trace.KindTimerCall, CBID: uint64(other)<<8 | 0x80 | si},
				trace.Event{Kind: trace.KindDDSWrite, Topic: dds.ServiceRequestTopic(sv.name), SrcTS: reqTS},
				trace.Event{Kind: trace.KindTimerCBEnd})
		}

		instance(sv.server, reqDone,
			trace.Event{Kind: trace.KindServiceCBStart},
			trace.Event{Kind: trace.KindTakeRequest, CBID: sv.id, Topic: sv.name, SrcTS: reqTS},
			trace.Event{Kind: trace.KindDDSWrite, Topic: dds.ServiceResponseTopic(sv.name), SrcTS: respTS},
			trace.Event{Kind: trace.KindServiceCBEnd})

		for _, c := range sv.clients {
			if r.Intn(10) == 0 {
				continue // this client's callback never runs
			}
			ret := uint64(0)
			if c == requester || r.Intn(8) == 0 {
				ret = 1 // a stray second dispatch: the first take in stream order wins
			}
			instance(c, respDone,
				trace.Event{Kind: trace.KindClientCBStart},
				trace.Event{Kind: trace.KindTakeResponse, CBID: 0x1000 | uint64(c)<<4 | si, Topic: sv.name, SrcTS: respTS},
				trace.Event{Kind: trace.KindTakeTypeErased, Ret: ret},
				trace.Event{Kind: trace.KindClientCBEnd})
		}
	}

	tr := &trace.Trace{}
	now, seq := sim.Time(0), uint64(0)
	emit := func(e trace.Event) {
		e.Time, e.Seq = now, seq
		seq++
		tr.Append(e)
	}
	for i, pid := range pids {
		emit(trace.Event{PID: pid, Kind: trace.KindCreateNode, Node: string(rune('a' + i))})
	}
	for {
		var ready []uint32
		for _, pid := range pids {
			if sc := scripts[pid]; len(sc) > 0 && (sc[0].needs == nil || *sc[0].needs) {
				ready = append(ready, pid)
			}
		}
		if len(ready) == 0 {
			break
		}
		if r.Intn(3) > 0 {
			now += sim.Time(r.Intn(5))
		}
		if r.Intn(3) == 0 {
			prev, next := pids[r.Intn(len(pids))], pids[r.Intn(len(pids))]
			if r.Intn(3) == 0 {
				next = 1
			}
			emit(trace.Event{Kind: trace.KindSchedSwitch, PrevPID: prev, NextPID: next})
		}
		pid := ready[r.Intn(len(ready))]
		st := scripts[pid][0]
		scripts[pid] = scripts[pid][1:]
		emit(st.e)
		if st.e.Kind == trace.KindDDSWrite {
			if done := written[topicTS{st.e.Topic, st.e.SrcTS}]; done != nil {
				*done = true
			}
		}
	}
	return tr
}

// TestModelBuilderRandomServiceTraffic is the differential test of the
// value-based caller and client searches: on random multi-client
// service traffic, the online engine must equal the batch oracle at
// random checkpoints mid-stream — where clients of in-flight responses
// are still unknown — and at the end.
func TestModelBuilderRandomServiceTraffic(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 40; seed++ {
		tr := serviceTraffic(seed)
		r := sim.NewRNG(seed + 1000)
		mb := NewModelBuilder()
		next := 1 + r.Intn(60)
		for i, e := range tr.Events {
			mb.Observe(e)
			if i+1 == next || i+1 == len(tr.Events) {
				want := BatchExtractModel(&trace.Trace{Events: tr.Events[:i+1]})
				requireSameModel(t, mb.Finish(), want)
				next += 1 + r.Intn(60)
			}
		}
		m := mb.Finish()
		for _, d := range m.Diags {
			seen[strings.Fields(d.Msg)[1]+" "+strings.Fields(d.Msg)[2]] = true
		}
		for _, cb := range m.Callbacks {
			seen[cb.Type.String()] = true
		}
	}
	for _, want := range []string{"caller found", "dispatched client", "timer", "service", "client"} {
		if !seen[want] {
			t.Errorf("no seed produced %q; the generator no longer covers it (saw %v)", want, seen)
		}
	}
}

// TestModelBuilderFoldsSchedEvents checks the memory contract: after
// warmup, events that open no callback instance allocate nothing —
// scheduler events, timer calls and plain-topic writes outside a
// callback, and the calls, switches and sync marks inside an open one.
func TestModelBuilderFoldsSchedEvents(t *testing.T) {
	mb := NewModelBuilder()
	tm, seq := sim.Time(0), uint64(0)
	obs := func(e trace.Event) {
		tm++
		seq++
		e.Time, e.Seq = tm, seq
		mb.Observe(e)
	}
	obs(trace.Event{PID: 7, Kind: trace.KindCreateNode, Node: "n"})
	obs(trace.Event{PID: 8, Kind: trace.KindCreateNode, Node: "m"})
	// Warmup: one complete instance per PID, then an open one on PID 8.
	for _, pid := range []uint32{7, 8} {
		obs(trace.Event{PID: pid, Kind: trace.KindTimerCBStart})
		obs(trace.Event{PID: pid, Kind: trace.KindTimerCall, CBID: 0xA})
		obs(trace.Event{PID: pid, Kind: trace.KindDDSWrite, Topic: "/t", SrcTS: 1})
		obs(trace.Event{PID: pid, Kind: trace.KindTimerCBEnd})
	}
	obs(trace.Event{PID: 8, Kind: trace.KindSubCBStart})
	noCallback := []trace.Event{
		{Kind: trace.KindSchedSwitch, PrevPID: 7, NextPID: 8},
		{Kind: trace.KindSchedSwitch, PrevPID: 8, NextPID: 7},
		{Kind: trace.KindSchedWakeup, PID: 8},
		{PID: 7, Kind: trace.KindTimerCall, CBID: 0xA},
		{PID: 7, Kind: trace.KindDDSWrite, Topic: "/t", SrcTS: 2},
		{PID: 7, Kind: trace.KindTimerCBEnd},
		{PID: 8, Kind: trace.KindTimerCall, CBID: 0xB},
		{PID: 8, Kind: trace.KindSyncSubscribe},
	}
	// Many rounds per run, so even amortized growth of a buffer shows.
	const runs, rounds = 4, 1000
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < rounds; i++ {
			for _, e := range noCallback {
				obs(e)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("events that open no callback allocated %v times per %d events, want 0",
			allocs, rounds*len(noCallback))
	}
	if err := mb.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := mb.SchedEventsFolded(), uint64(3*rounds*(runs+1)); got != want {
		t.Fatalf("folded %d sched events, want %d", got, want)
	}
}
