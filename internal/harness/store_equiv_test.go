package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// writePeriodicSession reproduces the rostracer periodic-drain loop:
// boot a traced world and stream each drain period through a
// SegmentWriter into the store, one segment per period, never
// materializing a segment.
func writePeriodicSession(t *testing.T, st *trace.Store, session string, seed uint64,
	segments int, period sim.Duration) {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 6, Seed: seed})
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
	BuildBoth(1)(w)
	b.StopInit()
	for seg := 0; seg < segments; seg++ {
		w.Run(period)
		sw, err := st.WriteSegment(session, seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.StreamTo(sw); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreStreamSessionMatchesBatchPath is the full-stack persistence
// equivalence pin: a multi-segment session written by the rostracer
// periodic loop, read back through Store.StreamSession, must be
// byte-identical to the batch path — in events (vs an identical
// whole-run drain), in synthesized model text, in DAG DOT, and in the
// exported JSON figure artifact.
func TestStoreStreamSessionMatchesBatchPath(t *testing.T) {
	const seed = 23
	st, err := trace.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writePeriodicSession(t, st, "run", seed, 4, sim.Second)

	// Events: streaming read == an identical run drained once at the end
	// (successive periodic drains preserve global (Time, Seq) order).
	var col trace.Collector
	if err := st.StreamSession("run", &col); err != nil {
		t.Fatal(err)
	}
	var whole trace.Collector
	if _, err := RunSession(seed, 6, 4*sim.Second, true, BuildBoth(1), &whole); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col.Trace.Events, whole.Trace.Events) {
		t.Fatalf("stored session has %d events, whole-run drain %d, streams differ",
			len(col.Trace.Events), len(whole.Trace.Events))
	}

	// Artifacts: a model synthesized through the streaming store path
	// (cursors -> merge -> incremental builder, nothing materialized)
	// must render the same text as the batch pipeline.
	sink := core.NewSynthesizeSink()
	if err := st.StreamSession("run", sink); err != nil {
		t.Fatal(err)
	}
	dStream := sink.DAG()
	dBatch := modelDAG(&whole.Trace)

	if got, want := core.Summary(dStream), core.Summary(dBatch); got != want {
		t.Fatalf("model summaries differ:\n--- streamed store ---\n%s--- batch ---\n%s", got, want)
	}
	if got, want := core.ToDOT(dStream, "g"), core.ToDOT(dBatch, "g"); got != want {
		t.Fatal("DAG DOT differs between streamed store path and batch path")
	}
	var jStream, jBatch bytes.Buffer
	if err := core.WriteJSON(&jStream, dStream); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteJSON(&jBatch, dBatch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jStream.Bytes(), jBatch.Bytes()) {
		t.Fatal("exported JSON differs between streamed store path and batch path")
	}
}

// TestStoreSegmentsMatchPeriodicDrains checks each stored segment holds
// exactly one drain period's events: re-running the same world and
// collecting each period batch-style must reproduce segment files byte
// for byte (the periodic loop's writer vs a Collector's events written
// afterwards).
func TestStoreSegmentsMatchPeriodicDrains(t *testing.T) {
	const seed = 29
	streamDir, batchDir := t.TempDir(), t.TempDir()
	stStream, err := trace.NewStore(streamDir)
	if err != nil {
		t.Fatal(err)
	}
	writePeriodicSession(t, stStream, "run", seed, 3, sim.Second)

	stBatch, err := trace.NewStore(batchDir)
	if err != nil {
		t.Fatal(err)
	}
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 6, Seed: seed})
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
	BuildBoth(1)(w)
	b.StopInit()
	for seg := 0; seg < 3; seg++ {
		w.Run(sim.Second)
		var col trace.Collector
		if err := b.StreamTo(&col); err != nil {
			t.Fatal(err)
		}
		sw, err := stBatch.WriteSegment("run", seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range col.Trace.Events {
			sw.Observe(e)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for seg := 0; seg < 3; seg++ {
		name := fmt.Sprintf("run-%04d.rtrc", seg)
		a, err := os.ReadFile(filepath.Join(streamDir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(batchDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("segment %d differs: %d vs %d bytes", seg, len(a), len(b))
		}
	}
}
