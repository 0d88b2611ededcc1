package harness

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// modelDAG folds a collected, (Time, Seq)-ordered trace through an
// instance-keeping ModelBuilder and builds its DAG.
func modelDAG(tr *trace.Trace) *core.DAG {
	mb := core.NewModelBuilder()
	for _, e := range tr.Events {
		mb.Observe(e)
	}
	return core.BuildDAG(mb.Finish())
}

// TestStreamedFigureTextMatchesBatch checks the figure artifacts (DAG
// summary and DOT text) of a session streamed into a SynthesizeSink are
// byte-identical to those of an identical session collected first and
// then folded through an instance-keeping ModelBuilder.
func TestStreamedFigureTextMatchesBatch(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		build := BuildBoth(1)

		sink := core.NewSynthesizeSink()
		if _, err := RunSession(seed, 8, 6*sim.Second, true, build, sink); err != nil {
			t.Fatal(err)
		}
		dStream := sink.DAG()

		var col trace.Collector
		if _, err := RunSession(seed, 8, 6*sim.Second, true, build, &col); err != nil {
			t.Fatal(err)
		}
		dBatch := modelDAG(&col.Trace)

		if got, want := core.Summary(dStream), core.Summary(dBatch); got != want {
			t.Fatalf("seed %d: summaries differ:\n--- streamed ---\n%s--- batch ---\n%s", seed, got, want)
		}
		if got, want := core.ToDOT(dStream, "g"), core.ToDOT(dBatch, "g"); got != want {
			t.Fatalf("seed %d: DOT differs:\n--- streamed ---\n%s--- batch ---\n%s", seed, got, want)
		}
	}
}

// TestRunSessionIntoCounterMatchesBatchCounts checks the counting sink
// sees exactly the events a Collector materializes from an identical
// session, kind by kind.
func TestRunSessionIntoCounterMatchesBatchCounts(t *testing.T) {
	build := func(w *rclcpp.World) { apps.BuildSYN(w, apps.SYNConfig{}) }

	var kc trace.KindCounter
	if _, err := RunSession(5, 4, 3*sim.Second, true, build, &kc); err != nil {
		t.Fatal(err)
	}
	var col trace.Collector
	if _, err := RunSession(5, 4, 3*sim.Second, true, build, &col); err != nil {
		t.Fatal(err)
	}
	if kc.Total() != len(col.Trace.Events) {
		t.Fatalf("counter saw %d events, collector has %d", kc.Total(), len(col.Trace.Events))
	}
	batchCounts := map[trace.Kind]int{}
	for _, e := range col.Trace.Events {
		batchCounts[e.Kind]++
	}
	for kind, n := range batchCounts {
		if kc.Count(kind) != n {
			t.Fatalf("kind %v: counter %d, batch %d", kind, kc.Count(kind), n)
		}
	}
}
