package core_test

import (
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/msgfilters"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

func tracedWorld(t *testing.T, cpus int, seed uint64) (*rclcpp.World, *tracers.Bundle) {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: cpus, Seed: seed})
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
	return w, b
}

// drainTrace drains every tracer ring of b through StreamTo into one
// (Time, Seq)-ordered trace.
func drainTrace(t *testing.T, b *tracers.Bundle) *trace.Trace {
	t.Helper()
	var col trace.Collector
	if err := b.StreamTo(&col); err != nil {
		t.Fatal(err)
	}
	return &col.Trace
}

// outEdges returns d's edges out of key, in Edges order.
func outEdges(d *core.DAG, key string) []core.Edge {
	var out []core.Edge
	for _, e := range d.Edges() {
		if e.From == key {
			out = append(out, e)
		}
	}
	return out
}

// TestMeasuredETMatchesGroundTruthUnderInterference is the paper's SYN
// validation: designed (constant) execution times must be recovered
// exactly by Algorithm 2 from the trace, even when the node is preempted
// by higher-priority interference on its CPU.
func TestMeasuredETMatchesGroundTruthUnderInterference(t *testing.T) {
	w, b := tracedWorld(t, 1, 42) // single CPU forces preemption

	victim := w.NewNode("victim", 2, 1) // pinned to CPU 0
	pub := victim.CreatePublisher("/out")
	victim.CreateTimer(50*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: 7 * sim.Millisecond},
		Action: func(*rclcpp.CallbackContext) { pub.Publish(1) },
	})

	intruder := w.NewNode("intruder", 9, 1) // CPU 0, higher priority
	intruder.CreateTimer(13*sim.Millisecond, 3*sim.Millisecond, rclcpp.SimpleBody{
		ET: sim.Constant{Value: 2 * sim.Millisecond},
	})

	w.Run(2 * sim.Second)
	tr := drainTrace(t, b)
	m := core.StreamModel(tr)

	var victimCB *core.Callback
	for _, cb := range m.Callbacks {
		if cb.Node == "victim" && cb.Type == core.CBTimer {
			victimCB = cb
		}
	}
	if victimCB == nil {
		t.Fatal("victim timer callback not extracted")
	}
	if victimCB.Stats.Count < 30 {
		t.Fatalf("only %d instances", victimCB.Stats.Count)
	}
	// Every measured sample must equal the designed 7ms exactly (virtual
	// time has no measurement noise); the wall window, however, must often
	// exceed 7ms because of preemption.
	for _, inst := range victimCB.Instances {
		if inst.ET != 7*sim.Millisecond {
			t.Fatalf("measured ET %v != designed 7ms", inst.ET)
		}
	}
	preempted := 0
	for _, inst := range victimCB.Instances {
		if inst.End.Sub(inst.Start) > inst.ET {
			preempted++
		}
	}
	if preempted == 0 {
		t.Fatal("no instance was ever preempted; interference scenario broken")
	}
}

// TestServiceSplitIntoPerCallerVertices reproduces the paper's SV3 case:
// a service invoked from two different callers must appear as two
// vertices, keeping the computation chains disjoint.
func TestServiceSplitIntoPerCallerVertices(t *testing.T) {
	w, b := tracedWorld(t, 4, 7)

	server := w.NewNode("server", 5, 0)
	server.CreateService("sv3", sim.Constant{Value: sim.Millisecond}, nil)

	// Caller 1: a timer on node n1.
	n1 := w.NewNode("n1", 5, 0)
	cl1 := n1.CreateClient("sv3", rclcpp.SimpleBody{ET: sim.Constant{Value: sim.Millisecond}})
	n1.CreateTimer(40*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: 500 * sim.Microsecond},
		Action: func(*rclcpp.CallbackContext) { cl1.Call(nil) },
	})

	// Caller 2: a subscriber on node n2, triggered from n1's second timer.
	n2 := w.NewNode("n2", 5, 0)
	cl2 := n2.CreateClient("sv3", rclcpp.SimpleBody{ET: sim.Constant{Value: sim.Millisecond}})
	pubTrig := n1.CreatePublisher("/trig")
	n1.CreateTimer(60*sim.Millisecond, 5*sim.Millisecond, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: 500 * sim.Microsecond},
		Action: func(*rclcpp.CallbackContext) { pubTrig.Publish(1) },
	})
	n2.CreateSubscription("/trig", rclcpp.SimpleBody{
		ET:     sim.Constant{Value: 700 * sim.Microsecond},
		Action: func(ctx *rclcpp.CallbackContext) { cl2.Call(nil) },
	})

	w.Run(2 * sim.Second)
	tr := drainTrace(t, b)
	d := core.BuildDAG(core.StreamModel(tr))

	var serviceVerts []*core.Vertex
	for _, k := range d.VertexKeys() {
		if v := d.Vertices[k]; v.Type == core.CBService && !v.IsAnd {
			serviceVerts = append(serviceVerts, v)
		}
	}
	if len(serviceVerts) != 2 {
		t.Fatalf("service vertices = %d, want 2 (per-caller split): %v",
			len(serviceVerts), d.VertexKeys())
	}

	// The chains must not cross: the service vertex fed by the timer must
	// send its response edge to cl1's vertex only, and vice versa.
	for _, sv := range serviceVerts {
		ins := d.InEdges(sv.Key)
		outs := outEdges(d, sv.Key)
		if len(ins) != 1 || len(outs) != 1 {
			t.Fatalf("service vertex %s has %d in / %d out edges", sv.Key, len(ins), len(outs))
		}
		from := d.Vertices[ins[0].From]
		to := d.Vertices[outs[0].To]
		switch {
		case from.Node == "n1" && to.Node != "n1":
			t.Fatalf("chain crosses: caller n1 but client %s", to.Node)
		case from.Node == "n2" && to.Node != "n2":
			t.Fatalf("chain crosses: caller n2 but client %s", to.Node)
		}
	}
}

// TestSyncSubscribersGetAndJunction reproduces the fusion structure of
// Fig. 3b: two sync subscribers feed an AND junction which feeds the
// downstream subscriber; no direct edges bypass the junction.
func TestSyncSubscribersGetAndJunction(t *testing.T) {
	w, b := tracedWorld(t, 4, 11)

	drv := w.NewNode("drivers", 5, 0)
	p1 := drv.CreatePublisher("/s1")
	p2 := drv.CreatePublisher("/s2")
	drv.CreateTimer(100*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET: sim.Constant{Value: 100 * sim.Microsecond},
		Action: func(*rclcpp.CallbackContext) {
			p1.Publish(1)
			p2.Publish(2)
		},
	})

	fusion := w.NewNode("fusion", 5, 0)
	fusedPub := fusion.CreatePublisher("/fused")
	msgfilters.New(fusion, msgfilters.Config{
		Topics:  []string{"/s1", "/s2"},
		FusedET: sim.Constant{Value: 2 * sim.Millisecond},
		Fused:   func(fc *msgfilters.FusedContext) { fusedPub.Publish(3) },
	})

	down := w.NewNode("down", 5, 0)
	down.CreateSubscription("/fused", rclcpp.SimpleBody{ET: sim.Constant{Value: sim.Millisecond}})

	w.Run(2 * sim.Second)
	tr := drainTrace(t, b)
	d := core.BuildDAG(core.StreamModel(tr))

	var and *core.Vertex
	syncCount := 0
	for _, k := range d.VertexKeys() {
		v := d.Vertices[k]
		if v.IsAnd {
			and = v
		}
		if v.IsSync {
			syncCount++
		}
	}
	if and == nil {
		t.Fatalf("no AND junction: %v", d.VertexKeys())
	}
	if syncCount != 2 {
		t.Fatalf("sync vertices = %d, want 2", syncCount)
	}
	if and.Stats.Count != 0 {
		t.Fatal("AND junction must have zero execution time")
	}
	if n := len(d.InEdges(and.Key)); n != 2 {
		t.Fatalf("AND in-edges = %d, want 2", n)
	}
	outs := outEdges(d, and.Key)
	if len(outs) != 1 || outs[0].Topic != "/fused" {
		t.Fatalf("AND out-edges = %v", outs)
	}
	downV := d.Vertices[outs[0].To]
	if downV.Node != "down" {
		t.Fatalf("AND output feeds %s", downV.Node)
	}
	// No direct sync->down edge may bypass the junction.
	for _, e := range d.Edges() {
		from := d.Vertices[e.From]
		if from.IsSync && e.To == downV.Key {
			t.Fatalf("direct edge bypasses AND junction: %+v", e)
		}
	}
}

// TestOrJunctionMarked: two publishers on one topic mark the subscriber as
// an OR junction.
func TestOrJunctionMarked(t *testing.T) {
	w, b := tracedWorld(t, 4, 13)

	a := w.NewNode("pub_a", 5, 0)
	c := w.NewNode("pub_c", 5, 0)
	pa := a.CreatePublisher("/shared")
	pc := c.CreatePublisher("/shared")
	a.CreateTimer(50*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET: sim.Constant{Value: 100 * sim.Microsecond}, Action: func(*rclcpp.CallbackContext) { pa.Publish(1) }})
	c.CreateTimer(70*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET: sim.Constant{Value: 100 * sim.Microsecond}, Action: func(*rclcpp.CallbackContext) { pc.Publish(1) }})

	s := w.NewNode("subscriber", 5, 0)
	s.CreateSubscription("/shared", rclcpp.SimpleBody{ET: sim.Constant{Value: sim.Millisecond}})

	w.Run(1 * sim.Second)
	tr := drainTrace(t, b)
	d := core.BuildDAG(core.StreamModel(tr))

	sub := d.VertexByLabelSubstring("subscriber|sub")
	if sub == nil {
		t.Fatalf("subscriber vertex missing: %v", d.VertexKeys())
	}
	if !sub.OrJunction {
		t.Fatal("subscriber not marked as OR junction")
	}
	if n := len(d.InEdges(sub.Key)); n != 2 {
		t.Fatalf("in-edges = %d, want 2", n)
	}
}

// TestMergeStrategiesEquivalent checks Fig. 2's two processing paths:
// merging traces then synthesizing equals synthesizing per trace and
// merging DAGs (same vertices, edges, and statistics).
func TestMergeStrategiesEquivalent(t *testing.T) {
	var segs []*trace.Trace
	runOnce := func(seed uint64) *trace.Trace {
		w, b := tracedWorld(t, 2, seed)
		n := w.NewNode("n", 5, 0)
		pub := n.CreatePublisher("/x")
		n.CreateTimer(20*sim.Millisecond, 0, rclcpp.SimpleBody{
			ET:     sim.Uniform{Min: sim.Millisecond, Max: 3 * sim.Millisecond},
			Action: func(*rclcpp.CallbackContext) { pub.Publish(1) },
		})
		m := w.NodeByName("n")
		_ = m
		s := w.NewNode("s", 5, 0)
		s.CreateSubscription("/x", rclcpp.SimpleBody{ET: sim.Constant{Value: sim.Millisecond}})
		w.Run(500 * sim.Millisecond)
		return drainTrace(t, b)
	}
	for seed := uint64(100); seed < 103; seed++ {
		segs = append(segs, runOnce(seed))
	}

	// Path (i): merge traces, then synthesize. Note: traces from separate
	// runs have distinct PIDs only by luck of identical worlds — here the
	// worlds are identical in structure so PIDs coincide; synthesizing a
	// cross-run merged trace is only meaningful per run, so path (i) is
	// applied within each run and the comparison is on equal inputs.
	var dagsA, dagsB []*core.DAG
	for _, s := range segs {
		sink := core.NewSynthesizeSink()
		for _, e := range s.Events {
			sink.Observe(e)
		}
		dagsA = append(dagsA, sink.DAG())
	}
	for _, s := range segs {
		dagsB = append(dagsB, core.BuildDAG(core.StreamModel(s)))
	}
	a := core.MergeDAGs(dagsA...)
	bb := core.MergeDAGs(dagsB...)

	if len(a.Vertices) != len(bb.Vertices) {
		t.Fatalf("vertex counts differ: %d vs %d", len(a.Vertices), len(bb.Vertices))
	}
	ae, be := a.Edges(), bb.Edges()
	if len(ae) != len(be) {
		t.Fatalf("edge counts differ: %d vs %d", len(ae), len(be))
	}
	for k, va := range a.Vertices {
		vb, ok := bb.Vertices[k]
		if !ok {
			t.Fatalf("vertex %s missing in path B", k)
		}
		if va.Stats.Count != vb.Stats.Count || va.Stats.Min != vb.Stats.Min || va.Stats.Max != vb.Stats.Max {
			t.Fatalf("stats differ for %s: %+v vs %+v", k, va.Stats, vb.Stats)
		}
	}
}

func TestDAGExports(t *testing.T) {
	w, b := tracedWorld(t, 2, 21)
	n := w.NewNode("n", 5, 0)
	pub := n.CreatePublisher("/x")
	n.CreateTimer(20*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: sim.Millisecond},
		Action: func(*rclcpp.CallbackContext) { pub.Publish(1) },
	})
	s := w.NewNode("s", 5, 0)
	s.CreateSubscription("/x", rclcpp.SimpleBody{ET: sim.Constant{Value: sim.Millisecond}})
	w.Run(200 * sim.Millisecond)
	tr := drainTrace(t, b)
	d := core.BuildDAG(core.StreamModel(tr))

	dot := core.ToDOT(d, "test")
	for _, want := range []string{"digraph", "cluster_", "/x", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	var sb strings.Builder
	if err := core.WriteJSON(&sb, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\"vertices\"") {
		t.Error("JSON missing vertices")
	}
	sum := core.Summary(d)
	if !strings.Contains(sum, "2 vertices, 1 edges") {
		t.Errorf("summary:\n%s", sum)
	}
}

// TestMultiModeDAG: traces merged per mode produce per-mode DAGs whose
// union covers both.
func TestMultiModeDAG(t *testing.T) {
	runMode := func(seed uint64, topic string) *trace.Trace {
		w, b := tracedWorld(t, 2, seed)
		n := w.NewNode("n", 5, 0)
		pub := n.CreatePublisher(topic)
		n.CreateTimer(20*sim.Millisecond, 0, rclcpp.SimpleBody{
			ET:     sim.Constant{Value: sim.Millisecond},
			Action: func(*rclcpp.CallbackContext) { pub.Publish(1) },
		})
		s := w.NewNode("s", 5, 0)
		s.CreateSubscription(topic, rclcpp.SimpleBody{ET: sim.Constant{Value: sim.Millisecond}})
		w.Run(200 * sim.Millisecond)
		return drainTrace(t, b)
	}
	mm := core.NewMultiModeDAG()
	mm.Add("city", core.BuildDAG(core.StreamModel(runMode(1, "/city"))))
	mm.Add("highway", core.BuildDAG(core.StreamModel(runMode(2, "/highway"))))
	mm.Add("city", core.BuildDAG(core.StreamModel(runMode(3, "/city"))))

	if got := mm.ModeNames(); len(got) != 2 {
		t.Fatalf("modes = %v", got)
	}
	city := mm.Modes["city"]
	cityTimer := city.VertexByLabelSubstring("timer")
	if cityTimer == nil || cityTimer.Stats.Count < 15 {
		t.Fatalf("city timer stats %+v", cityTimer)
	}
	union := mm.Union()
	if len(union.Vertices) != 4 {
		t.Fatalf("union vertices = %v", union.VertexKeys())
	}
}
