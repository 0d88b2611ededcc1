package tracers

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/msgfilters"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sched"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// newTracedWorld builds a world with all three tracers attached.
func newTracedWorld(t *testing.T, cpus int, seed uint64) (*rclcpp.World, *Bundle) {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: cpus, Seed: seed})
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
	return w, b
}

func TestTimerToSubscriberPipeline(t *testing.T) {
	w, b := newTracedWorld(t, 2, 1)

	producer := w.NewNode("producer", 5, 0)
	consumer := w.NewNode("consumer", 5, 0)

	pub := producer.CreatePublisher("/t1")
	producer.CreateTimer(100*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: 2 * sim.Millisecond},
		Action: func(*rclcpp.CallbackContext) { pub.Publish("ping") },
	})
	consumer.CreateSubscription("/t1", rclcpp.SimpleBody{
		ET: sim.Constant{Value: 3 * sim.Millisecond},
	})

	w.Run(1 * sim.Second)
	tr := drainTrace(t, b)

	// Node creations observed with correct PIDs.
	nodes := map[string]uint32{}
	for _, e := range tr.Events {
		if e.Kind == trace.KindCreateNode {
			nodes[e.Node] = e.PID
		}
	}
	if nodes["producer"] != producer.PID() || nodes["consumer"] != consumer.PID() {
		t.Fatalf("node map %v, pids %d/%d", nodes, producer.PID(), consumer.PID())
	}

	counts := map[trace.Kind]int{}
	for _, e := range tr.Events {
		counts[e.Kind]++
	}
	// 10 timer expiries in 1s at 100ms; the instance starting exactly at
	// the horizon may not complete within it.
	starts, ends := counts[trace.KindTimerCBStart], counts[trace.KindTimerCBEnd]
	if starts != 10 {
		t.Errorf("timer starts = %d, want 10", starts)
	}
	if ends != starts && ends != starts-1 {
		t.Errorf("timer ends = %d for %d starts", ends, starts)
	}
	if counts[trace.KindTimerCall] != starts {
		t.Errorf("P3 events = %d, want %d", counts[trace.KindTimerCall], starts)
	}
	if counts[trace.KindDDSWrite] < 9 {
		t.Errorf("P16 events = %d", counts[trace.KindDDSWrite])
	}
	// The last publish at ~1s may or may not be handled within horizon.
	if counts[trace.KindSubCBStart] < 9 || counts[trace.KindTakeInt] < 9 {
		t.Errorf("sub starts/takes = %d/%d, want >= 9",
			counts[trace.KindSubCBStart], counts[trace.KindTakeInt])
	}
	if counts[trace.KindSchedSwitch] == 0 {
		t.Error("no sched_switch events")
	}

	// Per-instance event ordering for the consumer: P5 then P6 then P8,
	// with matching topic and source timestamps linking back to a P16.
	sub := rosEventsOf(tr, consumer.PID())
	writes := map[int64]bool{}
	for _, e := range tr.Events {
		if e.Kind == trace.KindDDSWrite && e.Topic == "/t1" {
			writes[e.SrcTS] = true
		}
	}
	state := 0
	takes := 0
	for _, e := range sub {
		switch e.Kind {
		case trace.KindSubCBStart:
			if state != 0 {
				t.Fatalf("P5 in state %d", state)
			}
			state = 1
		case trace.KindTakeInt:
			if state != 1 {
				t.Fatalf("P6 in state %d", state)
			}
			if e.Topic != "/t1" {
				t.Fatalf("take topic %q", e.Topic)
			}
			if !writes[e.SrcTS] {
				t.Fatalf("take srcTS %d has no matching dds_write", e.SrcTS)
			}
			takes++
			state = 2
		case trace.KindSubCBEnd:
			if state != 2 {
				t.Fatalf("P8 in state %d", state)
			}
			state = 0
		}
	}
	if takes < 9 {
		t.Fatalf("only %d takes", takes)
	}

	// Kernel filtering: only traced PIDs appear in sched events.
	pids := map[uint32]bool{producer.PID(): true, consumer.PID(): true}
	for _, e := range tr.Events {
		if e.Kind != trace.KindSchedSwitch && e.Kind != trace.KindSchedWakeup {
			continue
		}
		if !pids[e.PrevPID] && !pids[e.NextPID] && e.PrevPID != 0 && e.NextPID != 0 {
			t.Fatalf("unfiltered sched event %+v", e)
		}
	}
}

func TestServiceMultiClientDispatch(t *testing.T) {
	w, b := newTracedWorld(t, 2, 2)

	server := w.NewNode("server", 5, 0)
	clientA := w.NewNode("client_a", 5, 0)
	clientB := w.NewNode("client_b", 5, 0)

	server.CreateService("sv", sim.Constant{Value: sim.Millisecond}, nil)

	dispatchedA, dispatchedB := 0, 0
	ca := clientA.CreateClient("sv", rclcpp.BodyFunc(func(*rclcpp.CallbackContext) (sim.Duration, rclcpp.Action) {
		dispatchedA++
		return sim.Millisecond, nil
	}))
	cb := clientB.CreateClient("sv", rclcpp.BodyFunc(func(*rclcpp.CallbackContext) (sim.Duration, rclcpp.Action) {
		dispatchedB++
		return sim.Millisecond, nil
	}))

	// Only client A calls, via a timer on its node.
	clientA.CreateTimer(50*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: 100 * sim.Microsecond},
		Action: func(*rclcpp.CallbackContext) { ca.Call(nil) },
	})
	_ = cb

	w.Run(500 * sim.Millisecond)
	tr := drainTrace(t, b)

	if dispatchedA == 0 {
		t.Fatal("client A callback never dispatched")
	}
	if dispatchedB != 0 {
		t.Fatalf("client B dispatched %d times; responses must only dispatch the caller", dispatchedB)
	}

	// Both client nodes must see execute_client and P13/P14 events; B's P14
	// must carry ret=0, A's ret=1.
	sawB14 := false
	for _, e := range rosEventsOf(tr, clientB.PID()) {
		if e.Kind == trace.KindTakeTypeErased {
			sawB14 = true
			if e.Ret != 0 {
				t.Fatalf("client B P14 ret = %d", e.Ret)
			}
		}
	}
	if !sawB14 {
		t.Fatal("client B never produced P14 (response not delivered to all clients)")
	}
	sawA14 := false
	for _, e := range rosEventsOf(tr, clientA.PID()) {
		if e.Kind == trace.KindTakeTypeErased && e.Ret == 1 {
			sawA14 = true
		}
	}
	if !sawA14 {
		t.Fatal("client A has no dispatching P14")
	}

	// Request/response topics are classified correctly.
	reqSeen, respSeen := false, false
	for _, e := range tr.Events {
		if e.Kind == trace.KindDDSWrite {
			if dds.IsRequestTopic(e.Topic) {
				reqSeen = true
			}
			if dds.IsResponseTopic(e.Topic) {
				respSeen = true
			}
		}
	}
	if !reqSeen || !respSeen {
		t.Fatalf("request/response writes seen = %v/%v", reqSeen, respSeen)
	}
}

func TestMessageFilterSyncFiresP7AndFuses(t *testing.T) {
	w, b := newTracedWorld(t, 2, 3)

	sensorish := w.NewNode("drivers", 5, 0)
	fusion := w.NewNode("fusion", 5, 0)

	pf := sensorish.CreatePublisher("/f1")
	pr := sensorish.CreatePublisher("/f2")
	sensorish.CreateTimer(100*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET: sim.Constant{Value: 100 * sim.Microsecond},
		Action: func(*rclcpp.CallbackContext) {
			pf.Publish("front")
			pr.Publish("rear")
		},
	})

	fusedPub := fusion.CreatePublisher("/fused")
	matches := 0
	msgfilters.New(fusion, msgfilters.Config{
		Topics:  []string{"/f1", "/f2"},
		Policy:  msgfilters.ApproximateTime{Slop: 10 * sim.Millisecond},
		ReadET:  []sim.Distribution{sim.Constant{Value: 200 * sim.Microsecond}, sim.Constant{Value: 150 * sim.Microsecond}},
		FusedET: sim.Constant{Value: 2 * sim.Millisecond},
		Fused: func(fc *msgfilters.FusedContext) {
			if len(fc.Set) != 2 {
				t.Errorf("fused set size %d", len(fc.Set))
			}
			matches++
			fusedPub.Publish("fused")
		},
	})

	w.Run(1 * sim.Second)
	tr := drainTrace(t, b)

	if matches < 9 {
		t.Fatalf("only %d fusion matches", matches)
	}
	counts := map[trace.Kind]int{}
	fusedWrites := 0
	for _, e := range tr.Events {
		counts[e.Kind]++
		if e.Kind == trace.KindDDSWrite && e.Topic == "/fused" {
			fusedWrites++
		}
	}
	if counts[trace.KindSyncSubscribe] < 18 {
		t.Errorf("P7 events = %d, want ~20", counts[trace.KindSyncSubscribe])
	}
	if fusedWrites < 9 {
		t.Errorf("fused writes = %d", fusedWrites)
	}
	// The fused write must occur inside a subscription callback window of
	// the fusion node (between P5 and P8 of the same PID).
	depth := 0
	for _, e := range rosEventsOf(tr, fusion.PID()) {
		switch e.Kind {
		case trace.KindSubCBStart:
			depth++
		case trace.KindSubCBEnd:
			depth--
		case trace.KindDDSWrite:
			if e.Topic == "/fused" && depth != 1 {
				t.Fatalf("fused write outside callback window (depth %d)", depth)
			}
		}
	}
}

// rosEventsOf returns the ROS2 (non-scheduler) events of pid, in the
// drained trace's (Time, Seq) order.
func rosEventsOf(tr *trace.Trace, pid uint32) []trace.Event {
	var out []trace.Event
	for _, e := range tr.Events {
		if e.PID == pid && e.Kind != trace.KindSchedSwitch && e.Kind != trace.KindSchedWakeup {
			out = append(out, e)
		}
	}
	return out
}

func TestSessionSegmentation(t *testing.T) {
	// Fig. 2: stop TR_RT+TR_KN mid-run, save, restart with empty buffers;
	// merging the segments yields a complete trace.
	w, b := newTracedWorld(t, 2, 4)
	node := w.NewNode("solo", 5, 0)
	pub := node.CreatePublisher("/x")
	node.CreateTimer(10*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: sim.Millisecond},
		Action: func(*rclcpp.CallbackContext) { pub.Publish(1) },
	})
	b.StopInit()

	var segments []*trace.Trace
	for i := 0; i < 4; i++ {
		w.Run(250 * sim.Millisecond)
		seg := drainTrace(t, b)
		segments = append(segments, seg)
	}
	curs := make([]trace.Cursor, len(segments))
	for i, seg := range segments {
		curs[i] = &trace.SliceCursor{Events: seg.Events}
	}
	var col trace.Collector
	if err := trace.NewMergeStream(curs...).Run(&col); err != nil {
		t.Fatal(err)
	}
	merged := &col.Trace

	starts := 0
	for _, e := range merged.Events {
		if e.Kind == trace.KindTimerCBStart {
			starts++
		}
	}
	if starts != 100 {
		t.Fatalf("merged segments contain %d timer starts, want 100", starts)
	}
	// Ordering is monotone in (time, seq).
	for i := 1; i < len(merged.Events); i++ {
		a, bb := merged.Events[i-1], merged.Events[i]
		if bb.Time < a.Time || (bb.Time == a.Time && bb.Seq < a.Seq) {
			t.Fatal("merged trace not sorted")
		}
	}
}

func TestKernelFilteringReducesVolume(t *testing.T) {
	run := func(filtered bool) uint64 {
		w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 5})
		b, err := NewBundle(w.Runtime())
		if err != nil {
			t.Fatal(err)
		}
		BridgeSched(w.Machine(), w.Runtime())
		if err := b.StartInit(); err != nil {
			t.Fatal(err)
		}
		if err := b.StartKernel(filtered); err != nil {
			t.Fatal(err)
		}
		// One traced ROS2 node plus many untraced background threads.
		node := w.NewNode("ros_node", 5, 0)
		pub := node.CreatePublisher("/x")
		node.CreateTimer(100*sim.Millisecond, 0, rclcpp.SimpleBody{
			ET:     sim.Constant{Value: sim.Millisecond},
			Action: func(*rclcpp.CallbackContext) { pub.Publish(1) },
		})
		for i := 0; i < 8; i++ {
			spawnChatterThread(w, 2*sim.Millisecond)
		}
		w.Run(2 * sim.Second)
		return totals(b.knPB).Bytes
	}
	filteredBytes := run(true)
	unfilteredBytes := run(false)
	if filteredBytes == 0 {
		t.Fatal("filtered kernel trace empty")
	}
	if unfilteredBytes < 10*filteredBytes {
		t.Fatalf("filtering reduced kernel trace only %.1fx (want >= 10x): %d vs %d",
			float64(unfilteredBytes)/float64(filteredBytes), unfilteredBytes, filteredBytes)
	}
}

func TestProbeOverheadAccounting(t *testing.T) {
	w, b := newTracedWorld(t, 2, 6)
	node := w.NewNode("n", 5, 0)
	pub := node.CreatePublisher("/x")
	node.CreateTimer(10*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: sim.Millisecond},
		Action: func(*rclcpp.CallbackContext) { pub.Publish(1) },
	})
	w.Run(1 * sim.Second)
	st := w.Runtime().Stats()
	if st.Runs == 0 {
		t.Fatalf("stats %+v", st)
	}
	if w.Runtime().CostNs() <= 0 {
		t.Fatal("no cost accounted")
	}
	if b.Lost() != 0 {
		t.Fatalf("lost records: %d", b.Lost())
	}
	// Probe cost must be a small fraction of application CPU time.
	appNs := float64(node.Thread().CPUTime())
	if ratio := w.Runtime().CostNs() / appNs; ratio > 0.05 {
		t.Fatalf("probe overhead ratio %.4f too high", ratio)
	}
}

// spawnChatterThread creates an untraced background thread alternating a
// short compute and a sleep, generating sched_switch noise for the
// filtering experiment.
func spawnChatterThread(w *rclcpp.World, period sim.Duration) {
	m := w.Machine()
	state := 0
	var pid sched.PID
	th := m.Spawn("chatter", 1, 0, sched.ProcFunc(func(*sched.Machine) sched.Demand {
		state++
		if state%2 == 1 {
			return sched.Compute(100 * sim.Microsecond)
		}
		w.Engine().After(period, func() { m.Wake(pid) })
		return sched.Block()
	}))
	pid = th.PID()
}
