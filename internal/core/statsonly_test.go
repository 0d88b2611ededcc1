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
	tr, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return tr
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

// TestStatsOnlySinksKeepNoInstances checks the retention contract after
// a traced both session: SynthesizeSink and a SnapshotService keep no
// per-instance history, yet count exactly the instances a ModelBuilder
// keeps, and their DAG vertices carry no samples.
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
		if len(cb.Instances) != cb.Stats.Count || len(cb.Stats.Samples) != cb.Stats.Count {
			t.Fatalf("ModelBuilder %s: %d instances, %d samples, count %d",
				cb, len(cb.Instances), len(cb.Stats.Samples), cb.Stats.Count)
		}
	}
	for name, m := range map[string]*core.Model{"SynthesizeSink": synth.Finish(), "Snapshot.Model": snap.Model} {
		if len(m.Callbacks) != len(full.Callbacks) {
			t.Fatalf("%s: %d callbacks, ModelBuilder %d", name, len(m.Callbacks), len(full.Callbacks))
		}
		for i, cb := range m.Callbacks {
			if cb.Instances != nil || cb.Stats.Samples != nil {
				t.Errorf("%s %s keeps %d instances and %d samples", name, cb, len(cb.Instances), len(cb.Stats.Samples))
			}
			if want := full.Callbacks[i]; cb.Stats.Count != want.Stats.Count || cb.First != want.First {
				t.Errorf("%s %s: count %d first %v, ModelBuilder count %d first %v",
					name, cb, cb.Stats.Count, cb.First, want.Stats.Count, want.First)
			}
		}
	}
	for name, d := range map[string]*core.DAG{"SynthesizeSink": synth.DAG(), "Snapshot": snap.DAG, "BuildDAG": core.BuildDAG(full)} {
		for k, v := range d.Vertices {
			if v.Stats.Samples != nil {
				t.Errorf("%s vertex %s keeps %d samples", name, k, len(v.Stats.Samples))
			}
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
	render := func(t *testing.T, d *core.DAG) string {
		var buf bytes.Buffer
		if err := core.WriteJSON(&buf, d); err != nil {
			t.Fatal(err)
		}
		return buf.String() + core.ToDOT(d, "g")
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
			want := render(t, core.BuildDAG(core.ExtractModel(tr)))
			if oracle := render(t, core.BuildDAG(core.BatchExtractModel(tr))); oracle != want {
				t.Fatalf("ExtractModel and the batch oracle disagree:\n%s\n---\n%s", want, oracle)
			}
			if got := render(t, synth.DAG()); got != want {
				t.Errorf("SynthesizeSink DAG differs:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
			if got := render(t, svc.Snapshot().DAG); got != want {
				t.Errorf("snapshot DAG differs:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}
