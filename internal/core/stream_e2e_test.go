package core_test

import (
	"reflect"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// streamedAndBatchModels runs two identical traced sessions and
// synthesizes one through the streaming pipeline (StreamTo into a
// ModelBuilder, no materialized trace) and one through the batch
// oracle (a collected trace through BatchExtractModel).
func streamedAndBatchModels(t *testing.T, cpus int, seed uint64,
	build func(*rclcpp.World)) (streamed, batch *core.Model) {
	t.Helper()
	run := func() (*rclcpp.World, *tracers.Bundle) {
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
		w.Run(4 * sim.Second)
		return w, b
	}

	_, bS := run()
	mb := core.NewModelBuilder()
	if err := bS.StreamTo(mb); err != nil {
		t.Fatal(err)
	}
	streamed = mb.Finish()

	_, bB := run()
	tr := drainTrace(t, bB)
	batch = core.BatchExtractModel(tr)
	return streamed, batch
}

// TestStreamedModelMatchesBatch pins the whole streamed pipeline —
// per-ring segment cursors, lazy decode, tournament merge, incremental
// Algorithm 1/2 — to the batch pipeline, over workloads covering every
// probe: SYN (services, clients), AVP (sync subscribers), both together,
// and a single-CPU SYN run that forces preemption so the online exec
// times are measured under real interference.
func TestStreamedModelMatchesBatch(t *testing.T) {
	cases := []struct {
		name  string
		cpus  int
		build func(*rclcpp.World)
	}{
		{"syn", 6, func(w *rclcpp.World) { apps.BuildSYN(w, apps.SYNConfig{}) }},
		{"avp", 6, func(w *rclcpp.World) { apps.BuildAVP(w, apps.AVPConfig{}) }},
		{"both", 4, func(w *rclcpp.World) {
			apps.BuildAVP(w, apps.AVPConfig{})
			apps.BuildSYN(w, apps.SYNConfig{})
		}},
		{"preempted-syn", 1, func(w *rclcpp.World) {
			apps.BuildSYN(w, apps.SYNConfig{Prio: 3})
			apps.BackgroundLoad(w, 2, 8, 0, 10*sim.Millisecond, 2*sim.Millisecond)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			streamed, batch := streamedAndBatchModels(t, tc.cpus, 21, tc.build)
			if len(batch.Callbacks) == 0 {
				t.Fatal("batch model extracted no callbacks")
			}
			if !reflect.DeepEqual(streamed.NodeOf, batch.NodeOf) {
				t.Fatalf("NodeOf differs: %v vs %v", streamed.NodeOf, batch.NodeOf)
			}
			if len(streamed.Callbacks) != len(batch.Callbacks) {
				t.Fatalf("callback counts differ: %d vs %d",
					len(streamed.Callbacks), len(batch.Callbacks))
			}
			for i := range batch.Callbacks {
				if !reflect.DeepEqual(streamed.Callbacks[i], batch.Callbacks[i]) {
					t.Fatalf("callback %d differs:\n stream: %+v\n batch:  %+v",
						i, streamed.Callbacks[i], batch.Callbacks[i])
				}
			}
			if !reflect.DeepEqual(streamed.Diags, batch.Diags) {
				t.Fatalf("diagnostics differ:\n stream: %v\n batch:  %v",
					streamed.Diags, batch.Diags)
			}
		})
	}
}

// TestStreamedDAGMatchesBatchDOT pins the figure artifact itself: the
// DOT export of the streamed DAG must be byte-identical to the batch
// one.
func TestStreamedDAGMatchesBatchDOT(t *testing.T) {
	streamed, batch := streamedAndBatchModels(t, 6, 5, func(w *rclcpp.World) {
		apps.BuildAVP(w, apps.AVPConfig{})
		apps.BuildSYN(w, apps.SYNConfig{})
	})
	got := core.ToDOT(core.BuildDAG(streamed), "x")
	want := core.ToDOT(core.BuildDAG(batch), "x")
	if got != want {
		t.Fatalf("DOT outputs differ:\n--- streamed ---\n%s\n--- batch ---\n%s", got, want)
	}
	gotSum := core.Summary(core.BuildDAG(streamed))
	wantSum := core.Summary(core.BuildDAG(batch))
	if gotSum != wantSum {
		t.Fatalf("summaries differ:\n--- streamed ---\n%s\n--- batch ---\n%s", gotSum, wantSum)
	}
}
