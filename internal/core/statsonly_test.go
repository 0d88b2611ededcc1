package core_test

import (
	"bytes"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// drainedSession traces build for d on cpus CPUs and returns the drained
// trace, in (Time, Seq) order.
func drainedSession(t *testing.T, cpus int, seed uint64, d sim.Duration, build func(*rclcpp.World)) *trace.Trace {
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
	b.StopInit()
	w.Run(d)
	return drainTrace(t, b)
}

func buildBoth(w *rclcpp.World) {
	apps.BuildAVP(w, apps.AVPConfig{})
	apps.BuildSYN(w, apps.SYNConfig{})
}

// buildTwinTimers puts two timers with identical outputs in one node.
// Their canonical keys collide, so the ordinal suffix each gets rests on
// Callback.First.
func buildTwinTimers(w *rclcpp.World) {
	n := w.NewNode("twins", 5, 0)
	pub := n.CreatePublisher("/twin")
	for _, tm := range []struct{ phase, et sim.Duration }{
		{7 * sim.Millisecond, 3 * sim.Millisecond},
		{2 * sim.Millisecond, 1 * sim.Millisecond},
	} {
		n.CreateTimer(20*sim.Millisecond, tm.phase, rclcpp.SimpleBody{
			ET:     sim.Constant{Value: tm.et},
			Action: func(*rclcpp.CallbackContext) { pub.Publish("x") },
		})
	}
	sub := w.NewNode("twin_sink", 5, 0)
	sub.CreateSubscription("/twin", rclcpp.SimpleBody{ET: sim.Constant{Value: sim.Millisecond}})
}

// renderDAG renders d as its JSON followed by its DOT.
func renderDAG(t *testing.T, d *core.DAG) string {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.String() + core.ToDOT(d, "g")
}

// TestStatsOnlySinksKeepNoInstances checks the retention contract after
// a traced both session: SynthesizeSink and a SnapshotService keep no
// per-instance history, yet count exactly the instances a ModelBuilder
// keeps and give every timer the same period, and their DAGs render
// identically to the one built from the ModelBuilder's model.
func TestStatsOnlySinksKeepNoInstances(t *testing.T) {
	tr := drainedSession(t, 6, 3, 3*sim.Second, buildBoth)
	synth := core.NewSynthesizeSink()
	svc := core.NewSnapshotService()
	mb := core.NewModelBuilder()
	sink := trace.MultiSink(synth, svc, mb)
	for _, e := range tr.Events {
		sink.Observe(e)
	}
	snap := svc.Snapshot()
	full := mb.Finish()
	if len(full.Callbacks) < 20 {
		t.Fatalf("implausibly small model: %d callbacks", len(full.Callbacks))
	}
	for _, cb := range full.Callbacks {
		if len(cb.Instances) != cb.Stats.Count {
			t.Fatalf("ModelBuilder %s: %d instances, count %d", cb, len(cb.Instances), cb.Stats.Count)
		}
	}
	for name, m := range map[string]*core.Model{"SynthesizeSink": synth.Finish(), "Snapshot.Model": snap.Model} {
		if len(m.Callbacks) != len(full.Callbacks) {
			t.Fatalf("%s: %d callbacks, ModelBuilder %d", name, len(m.Callbacks), len(full.Callbacks))
		}
		for i, cb := range m.Callbacks {
			if cb.Instances != nil {
				t.Errorf("%s %s keeps %d instances", name, cb, len(cb.Instances))
			}
			if want := full.Callbacks[i]; cb.Stats != want.Stats || cb.First != want.First || cb.Period != want.Period {
				t.Errorf("%s %s: stats %+v first %v period %v, ModelBuilder stats %+v first %v period %v",
					name, cb, cb.Stats, cb.First, cb.Period, want.Stats, want.First, want.Period)
			}
		}
	}
	want := renderDAG(t, core.BuildDAG(full))
	for name, d := range map[string]*core.DAG{"SynthesizeSink": synth.DAG(), "Snapshot": snap.DAG} {
		if got := renderDAG(t, d); got != want {
			t.Errorf("%s DAG differs from BuildDAG(ModelBuilder):\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}
}

// TestStatsOnlyDAGMatchesModelDAG checks that the stats-only DAG, from
// SynthesizeSink and from a live snapshot, renders byte-identical JSON
// and DOT to the DAG built from the full model, and from the batch
// oracle's model.
func TestStatsOnlyDAGMatchesModelDAG(t *testing.T) {
	cases := []struct {
		name  string
		build func(*rclcpp.World)
	}{
		{"syn", func(w *rclcpp.World) { apps.BuildSYN(w, apps.SYNConfig{}) }},
		{"avp", func(w *rclcpp.World) { apps.BuildAVP(w, apps.AVPConfig{}) }},
		{"both", buildBoth},
		{"twin-timers", buildTwinTimers},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := drainedSession(t, 4, 11, 2*sim.Second, tc.build)
			synth := core.NewSynthesizeSink()
			svc := core.NewSnapshotService()
			sink := trace.MultiSink(synth, svc)
			for _, e := range tr.Events {
				sink.Observe(e)
			}
			want := renderDAG(t, core.BuildDAG(core.StreamModel(tr)))
			if oracle := renderDAG(t, core.BuildDAG(core.BatchExtractModel(tr))); oracle != want {
				t.Fatalf("ModelBuilder and the batch oracle disagree:\n%s\n---\n%s", want, oracle)
			}
			if got := renderDAG(t, synth.DAG()); got != want {
				t.Errorf("SynthesizeSink DAG differs:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			if got := renderDAG(t, svc.Snapshot().DAG); got != want {
				t.Errorf("snapshot DAG differs:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
