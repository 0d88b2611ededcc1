package core_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// TestSnapshotServiceCheckpointsMatchBatch pins the incremental snapshot
// engine to the batch pipeline at every checkpoint, not just at the end:
// after each chunk of the stream, the service's snapshot must equal a
// full batch synthesis over exactly the events observed so far — DAG
// text, callback list, and diagnostics. This is the test that forces the
// pending-client machinery to be correct mid-stream, where a response's
// dispatched client may not have been observed yet: the batch re-run
// over the prefix produces the same "no client" decoration and
// diagnostic the engine must produce, and both must then converge to the
// real client once it appears in a later chunk.
func TestSnapshotServiceCheckpointsMatchBatch(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 6, Seed: 23})
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
	apps.BuildAVP(w, apps.AVPConfig{})
	apps.BuildSYN(w, apps.SYNConfig{})
	b.StopInit()

	svc := core.NewSnapshotService()
	var all []trace.Event

	checkpoints := 0
	check := func() {
		checkpoints++
		snap := svc.Snapshot()
		prefix := &trace.Trace{Events: all[:len(all):len(all)]}
		wantM := core.BatchExtractModel(prefix)
		wantD := core.BuildDAG(wantM)

		if got, want := core.Summary(snap.DAG), core.Summary(wantD); got != want {
			t.Fatalf("checkpoint %d (%d events): summary differs\n--- snapshot ---\n%s--- batch ---\n%s",
				checkpoints, len(all), got, want)
		}
		if got, want := core.ToDOT(snap.DAG, "g"), core.ToDOT(wantD, "g"); got != want {
			t.Fatalf("checkpoint %d (%d events): DOT differs", checkpoints, len(all))
		}
		if got, want := callbackText(snap.Model), callbackText(wantM); got != want {
			t.Fatalf("checkpoint %d (%d events): callbacks differ\n--- snapshot ---\n%s--- batch ---\n%s",
				checkpoints, len(all), got, want)
		}
		if got, want := fmt.Sprint(snap.Model.Diags), fmt.Sprint(wantM.Diags); got != want {
			t.Fatalf("checkpoint %d (%d events): diagnostics differ\n--- snapshot ---\n%s\n--- batch ---\n%s",
				checkpoints, len(all), got, want)
		}
	}

	sink := trace.SinkFunc(func(e trace.Event) {
		svc.Observe(e)
		all = append(all, e)
		if len(all)%1500 == 0 {
			check()
		}
	})
	for i := 0; i < 4; i++ {
		w.Run(sim.Second)
		if err := b.StreamTo(sink); err != nil {
			t.Fatal(err)
		}
	}
	check()
	if checkpoints < 3 {
		t.Fatalf("only %d checkpoints over %d events; stream too short to exercise the engine", checkpoints, len(all))
	}
}

func callbackText(m *core.Model) string {
	var sb strings.Builder
	for _, cb := range m.Callbacks {
		sb.WriteString(cb.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSnapshotSharesAreStable checks the clamp-shared materialization:
// slices handed out in one snapshot must not change as the engine keeps
// folding and later snapshots are taken.
func TestSnapshotSharesAreStable(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 7})
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
	apps.BuildAVP(w, apps.AVPConfig{})
	b.StopInit()

	svc := core.NewSnapshotService()
	w.Run(sim.Second)
	if err := b.StreamTo(svc); err != nil {
		t.Fatal(err)
	}
	first := svc.Snapshot()
	frozen := callbackText(first.Model)

	w.Run(3 * sim.Second)
	if err := b.StreamTo(svc); err != nil {
		t.Fatal(err)
	}
	second := svc.Snapshot()
	if callbackText(first.Model) != frozen {
		t.Fatal("first snapshot's model changed after further folding")
	}
	if second.Events <= first.Events {
		t.Fatalf("second snapshot saw %d events, first %d", second.Events, first.Events)
	}
}
