package apps_test

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// runTraced traces build for dur and streams the drained trace into a
// ModelBuilder.
func runTraced(t *testing.T, seed uint64, cpus int, build func(*rclcpp.World), dur sim.Duration) (*core.Model, *rclcpp.World) {
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
	build(w)
	w.Run(dur)
	mb := core.NewModelBuilder()
	if err := b.StreamTo(mb); err != nil {
		t.Fatal(err)
	}
	return mb.Finish(), w
}

func TestSYNDAGStructure(t *testing.T) {
	m, _ := runTraced(t, 1, 8, func(w *rclcpp.World) {
		apps.BuildSYN(w, apps.SYNConfig{})
	}, 10*sim.Second)
	d := core.BuildDAG(m)

	if len(d.Vertices) != apps.SYNExpectedVertices {
		t.Errorf("vertices = %d, want %d:\n%s", len(d.Vertices), apps.SYNExpectedVertices, core.Summary(d))
	}
	if got := len(d.Edges()); got != apps.SYNExpectedEdges {
		t.Errorf("edges = %d, want %d:\n%s", got, apps.SYNExpectedEdges, core.Summary(d))
	}

	// Scenario (iv): sv3 appears as two service vertices.
	sv3 := 0
	for _, k := range d.VertexKeys() {
		v := d.Vertices[k]
		if v.Type == core.CBService && !v.IsAnd && contains(v.InTopics, "rq/sv3Request") {
			sv3++
		}
	}
	if sv3 != 2 {
		t.Errorf("sv3 vertices = %d, want 2", sv3)
	}

	// Scenario (iii): /clp3 subscribed twice.
	clp3Subs := 0
	for _, e := range d.Edges() {
		if e.Topic == "/clp3" {
			clp3Subs++
		}
	}
	if clp3Subs != 2 {
		t.Errorf("/clp3 edges = %d, want 2", clp3Subs)
	}

	// Scenario (v): one AND junction in syn_node2.
	var and *core.Vertex
	for _, k := range d.VertexKeys() {
		if v := d.Vertices[k]; v.IsAnd {
			if and != nil {
				t.Error("multiple AND junctions")
			}
			and = v
		}
	}
	if and == nil || and.Node != "syn_node2" {
		t.Fatalf("AND junction = %+v", and)
	}
	if !contains(and.OutTopics, "/f3") {
		t.Errorf("AND outputs = %v", and.OutTopics)
	}
}

func TestSYNMeasurementMatchesDesign(t *testing.T) {
	// All SYN loads are constants, so every measured sample must equal the
	// designed value exactly — the paper's validation of its framework.
	m, _ := runTraced(t, 2, 8, func(w *rclcpp.World) {
		apps.BuildSYN(w, apps.SYNConfig{LoadScale: 1})
	}, 10*sim.Second)

	check := func(node string, typ core.CBType, inTopic string, want sim.Duration) {
		t.Helper()
		for _, cb := range m.Callbacks {
			if cb.Node == node && cb.Type == typ && baseOf(cb.InTopic) == inTopic {
				for _, inst := range cb.Instances {
					if inst.ET != want {
						t.Errorf("%s %s(%s): sample %v != designed %v", node, typ, inTopic, inst.ET, want)
						return
					}
				}
				return
			}
		}
		t.Errorf("callback %s %s(%s) not found", node, typ, inTopic)
	}
	check("syn_node2", core.CBSubscriber, "/t1", apps.SYNDesignedET["SC1"])
	check("syn_node5", core.CBSubscriber, "/t3", apps.SYNDesignedET["SC3"])
	check("syn_node4", core.CBService, "rq/sv1Request", apps.SYNDesignedET["SV1"])
	check("syn_node3", core.CBClient, "rr/sv2Reply", apps.SYNDesignedET["CL2"])
}

func TestAVPDAGMatchesFig3b(t *testing.T) {
	m, w := runTraced(t, 3, 8, func(w *rclcpp.World) {
		apps.BuildAVP(w, apps.AVPConfig{})
	}, 20*sim.Second)
	d := core.BuildDAG(m)

	// 6 callbacks + 1 AND junction.
	if len(d.Vertices) != 7 {
		t.Fatalf("vertices = %d:\n%s", len(d.Vertices), core.Summary(d))
	}
	// Chain: cb1 -> sync_rear; cb2 -> sync_front; syncs -> AND -> cb5 -> cb6.
	wantEdges := 6
	if got := len(d.Edges()); got != wantEdges {
		t.Fatalf("edges = %d, want %d:\n%s", got, wantEdges, core.Summary(d))
	}
	// Raw lidar topics must have no source vertex (external replayers).
	for _, e := range d.Edges() {
		if e.Topic == apps.TopicRearRaw || e.Topic == apps.TopicFrontRaw {
			t.Fatalf("raw topic has a modeled publisher: %+v", e)
		}
	}
	// The filter vertices exist and subscribe the raw topics.
	cb1 := d.VertexByLabelSubstring(apps.NodeFilterRear)
	cb2 := d.VertexByLabelSubstring(apps.NodeFilterFront)
	if cb1 == nil || cb2 == nil {
		t.Fatal("filter vertices missing")
	}
	if !contains(cb1.InTopics, apps.TopicRearRaw) || !contains(cb2.InTopics, apps.TopicFrontRaw) {
		t.Fatalf("filter in-topics: %v / %v", cb1.InTopics, cb2.InTopics)
	}
	// ~10 Hz arrival: about 200 instances in 20 s.
	if cb1.Stats.Count < 150 {
		t.Errorf("cb1 instances = %d", cb1.Stats.Count)
	}
	// The localizer is at the sink.
	cb6 := d.VertexByLabelSubstring(apps.NodeLocalizer)
	if cb6 == nil {
		t.Fatal("no localizer vertex")
	}
	for _, e := range d.Edges() {
		if e.From == cb6.Key {
			t.Fatalf("localizer vertex has out-edge %+v", e)
		}
	}
	if len(d.InEdges(cb6.Key)) != 1 || d.InEdges(cb6.Key)[0].Topic != apps.TopicDownsampled {
		t.Fatalf("localizer in-edges: %v", d.InEdges(cb6.Key))
	}
	_ = w
}

func TestAVPTableIIShape(t *testing.T) {
	// The designed distributions must reproduce Table II's orderings:
	// cb2 dominates cb1; cb3's average is well above cb4's; cb6 has the
	// largest worst case and a heavy tail (mWCET >> mACET).
	m, _ := runTraced(t, 4, 8, func(w *rclcpp.World) {
		apps.BuildAVP(w, apps.AVPConfig{})
	}, 40*sim.Second)
	d := core.BuildDAG(m)

	v := func(sub string) *core.Vertex {
		x := d.VertexByLabelSubstring(sub)
		if x == nil {
			t.Fatalf("vertex %s missing", sub)
		}
		return x
	}
	cb1 := v(apps.NodeFilterRear)
	cb2 := v(apps.NodeFilterFront)
	cb5 := v(apps.NodeVoxelGrid)
	cb6 := v(apps.NodeLocalizer)
	var cb3, cb4 *core.Vertex
	for _, k := range d.VertexKeys() {
		vt := d.Vertices[k]
		if vt.Node == apps.NodeFusion && vt.IsSync {
			if contains(vt.InTopics, apps.TopicFrontFiltered) {
				cb3 = vt
			} else {
				cb4 = vt
			}
		}
	}
	if cb3 == nil || cb4 == nil {
		t.Fatal("fusion sync vertices missing")
	}

	if !(cb2.Stats.ACET() > cb1.Stats.ACET()) {
		t.Errorf("cb2 ACET %v !> cb1 ACET %v", cb2.Stats.ACET(), cb1.Stats.ACET())
	}
	if !(cb3.Stats.ACET() > 3*cb4.Stats.ACET()) {
		t.Errorf("cb3 ACET %v not >> cb4 ACET %v", cb3.Stats.ACET(), cb4.Stats.ACET())
	}
	if !(cb6.Stats.WCET() > cb2.Stats.WCET() && cb6.Stats.WCET() > 2*cb6.Stats.ACET()) {
		t.Errorf("cb6 tail wrong: ACET %v WCET %v", cb6.Stats.ACET(), cb6.Stats.WCET())
	}
	if !(cb5.Stats.BCET() > 5*sim.Millisecond && cb5.Stats.WCET() < 15*sim.Millisecond) {
		t.Errorf("cb5 range [%v, %v]", cb5.Stats.BCET(), cb5.Stats.WCET())
	}
}

func TestRandomPipelinePropertySynthesisMatchesDesign(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRNG(seed * 977)
		var rp *apps.RandomPipeline
		m, _ := runTraced(t, seed, 8, func(w *rclcpp.World) {
			rp = apps.BuildRandomPipeline(w, rng, 1+rng.Intn(3), 4)
		}, 3*sim.Second)
		d := core.BuildDAG(m)

		if len(d.Vertices) != rp.Callbacks {
			t.Fatalf("seed %d: vertices = %d, designed %d\n%s",
				seed, len(d.Vertices), rp.Callbacks, core.Summary(d))
		}
		if len(d.Edges()) != len(rp.DesignedEdges) {
			t.Fatalf("seed %d: edges = %d, designed %d", seed, len(d.Edges()), len(rp.DesignedEdges))
		}
		// Every designed edge must exist with matching endpoints.
		for _, de := range rp.DesignedEdges {
			found := false
			for _, e := range d.Edges() {
				if e.Topic == de.Topic &&
					d.Vertices[e.From].Node == de.FromNode &&
					d.Vertices[e.To].Node == de.ToNode {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("seed %d: designed edge %+v missing", seed, de)
			}
		}
	}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func baseOf(t string) string {
	for i := len(t) - 1; i >= 0; i-- {
		if t[i] == '#' {
			return t[:i]
		}
	}
	return t
}
