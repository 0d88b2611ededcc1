package core_test

import (
	"errors"
	"sync"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// TestSnapshotServiceMatchesBatch streams a traced session into the
// snapshot service segment by segment — taking an intermediate snapshot
// after every drain, the -snapshot-every loop's shape — and checks the
// final snapshot equals the batch pipeline's artifacts byte for byte.
// Intermediate Finish calls must not perturb later ones.
func TestSnapshotServiceMatchesBatch(t *testing.T) {
	build := func(w *rclcpp.World) {
		apps.BuildAVP(w, apps.AVPConfig{})
		apps.BuildSYN(w, apps.SYNConfig{})
	}
	run := func(sink trace.Sink, segmented bool) *trace.Trace {
		w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 6, Seed: 17})
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
		if segmented {
			for i := 0; i < 4; i++ {
				w.Run(sim.Second)
				if err := b.StreamTo(sink); err != nil {
					t.Fatal(err)
				}
			}
			return nil
		}
		w.Run(4 * sim.Second)
		return drainTrace(t, b)
	}

	svc := core.NewSnapshotService()
	var seen []core.Snapshot
	run(trace.SinkFunc(func(e trace.Event) {
		svc.Observe(e)
		// An intermediate snapshot roughly mid-stream exercises
		// re-finishing with windows still open.
		if svc.EventsObserved() == 1000 {
			seen = append(seen, svc.Snapshot())
		}
	}), true)
	final := svc.Snapshot()
	seen = append(seen, final)

	tr := run(nil, false)
	want := core.BuildDAG(core.BatchExtractModel(tr))

	if got, wantTxt := core.Summary(final.DAG), core.Summary(want); got != wantTxt {
		t.Fatalf("final snapshot summary differs from batch:\n--- snapshot ---\n%s--- batch ---\n%s", got, wantTxt)
	}
	if got, wantTxt := core.ToDOT(final.DAG, "g"), core.ToDOT(want, "g"); got != wantTxt {
		t.Fatalf("final snapshot DOT differs from batch")
	}
	if final.Events != uint64(len(tr.Events)) {
		t.Fatalf("snapshot saw %d events, batch trace has %d", final.Events, len(tr.Events))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Seq <= seen[i-1].Seq || seen[i].Events < seen[i-1].Events ||
			seen[i].FoldedSched < seen[i-1].FoldedSched {
			t.Fatalf("snapshot counters regressed: %+v then %+v", seen[i-1], seen[i])
		}
	}
}

// TestSnapshotServiceConcurrent hammers the service with Observe
// batches from concurrent producers while a snapshotter runs — the
// long-running tracer shape, under -race — and asserts monotonicity:
// every snapshot's folded-event count is non-decreasing, and the final
// totals are exact. The producers hand a turn around a ring so that the
// batches, like drained segments, arrive in (Time, Seq) order overall.
func TestSnapshotServiceConcurrent(t *testing.T) {
	svc := core.NewSnapshotService()

	const producers = 4
	const batches = 50
	const batchLen = 20

	// Sched-only batches: folding them never opens windows, so totals
	// are exact. Batch b of producer p is global batch b*producers+p.
	mkBatch := func(p, b int) []trace.Event {
		evs := make([]trace.Event, batchLen)
		base := (b*producers + p) * batchLen
		for i := range evs {
			evs[i] = trace.Event{
				Time: sim.Time(base + i), Seq: uint64(base + i),
				Kind: trace.KindSchedSwitch, PrevPID: uint32(p + 1), NextPID: uint32(p + 2),
			}
		}
		return evs
	}
	turn := make([]chan struct{}, producers)
	for p := range turn {
		turn[p] = make(chan struct{}, 1)
	}
	turn[0] <- struct{}{}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snaps []core.Snapshot
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snaps = append(snaps, svc.Snapshot())
			}
		}
	}()
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for b := 0; b < batches; b++ {
				batch := mkBatch(p, b)
				<-turn[p]
				for _, e := range batch {
					svc.Observe(e)
				}
				turn[(p+1)%producers] <- struct{}{}
			}
		}(p)
	}
	pwg.Wait()
	close(stop)
	wg.Wait()

	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}
	final := svc.Snapshot()
	const total = producers * batches * batchLen
	if final.Events != total || final.FoldedSched != total {
		t.Fatalf("final snapshot: %d events / %d folded, want %d", final.Events, final.FoldedSched, total)
	}
	snaps = append(snaps, final)
	for i := 1; i < len(snaps); i++ {
		if snaps[i].FoldedSched < snaps[i-1].FoldedSched {
			t.Fatalf("snapshot %d folded %d after %d: not monotone",
				i, snaps[i].FoldedSched, snaps[i-1].FoldedSched)
		}
		if snaps[i].Events < snaps[i-1].Events {
			t.Fatalf("snapshot %d events %d after %d: not monotone",
				i, snaps[i].Events, snaps[i-1].Events)
		}
		if snaps[i].Seq != snaps[i-1].Seq+1 {
			t.Fatalf("snapshot seq not sequential: %d then %d", snaps[i-1].Seq, snaps[i].Seq)
		}
	}
}

// TestSnapshotServiceSnapshotsDuringTraffic takes snapshots and renders
// them while a producer keeps folding a real traced session — services,
// clients and sync subscribers — into the engine. A snapshot's model and
// DAG are built from slices the engine keeps appending behind, so under
// -race this checks the sharing is safe; the final snapshot must still
// equal the batch oracle.
func TestSnapshotServiceSnapshotsDuringTraffic(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 6, Seed: 29})
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
	w.Run(3 * sim.Second)
	tr := drainTrace(t, b)

	svc := core.NewSnapshotService()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, e := range tr.Events {
			svc.Observe(e)
		}
	}()
	snaps := 0
	for running := true; running; snaps++ {
		select {
		case <-done:
			running = false
		default:
		}
		snap := svc.Snapshot()
		_ = core.ToDOT(snap.DAG, "g") + callbackText(snap.Model)
	}
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}
	want := core.BuildDAG(core.BatchExtractModel(tr))
	if got, want := core.ToDOT(svc.Snapshot().DAG, "g"), core.ToDOT(want, "g"); got != want {
		t.Fatalf("final snapshot after %d concurrent ones differs from the batch oracle", snaps)
	}
}

// TestSnapshotServiceDetachesOnUnorderedDrain checks the order contract
// at the synthesis boundary. A stream that is not one (Time, Seq)-ordered
// sequence — here one drained second, fed as its even-CPU events
// followed by its odd-CPU ones, as draining rings separately would
// deliver it — goes back in time. Fed through an IsolatingMultiSink,
// the snapshot service must fail with trace.ErrUnordered on the first
// event that goes backwards and be detached with exact accounting; the
// model it keeps is the batch model of the ordered prefix it accepted,
// not a model of the scrambled stream.
func TestSnapshotServiceDetachesOnUnorderedDrain(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 11})
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
	apps.BuildSYN(w, apps.SYNConfig{})
	b.StopInit()
	w.Run(sim.Second)
	var drained trace.Collector
	if err := b.StreamTo(&drained); err != nil {
		t.Fatal(err)
	}

	svc := core.NewSnapshotService()
	var all []trace.Event
	fan := trace.NewIsolatingMultiSink()
	fan.Add("all", trace.SinkFunc(func(e trace.Event) { all = append(all, e) }))
	fan.Add("snapshot", svc)
	// Even CPUs first, then the rest: the second half starts back in
	// time.
	for _, odd := range []bool{false, true} {
		for _, e := range drained.Trace.Events {
			if (e.CPU%2 == 1) == odd {
				fan.Observe(e)
			}
		}
		if !odd {
			if err := svc.Err(); err != nil {
				t.Fatalf("the even-CPU events are ordered, yet the service failed: %v", err)
			}
		}
	}

	det := fan.Detached()
	if len(det) != 1 || det[0].Name != "snapshot" {
		t.Fatalf("detachments %+v, want the snapshot service alone", det)
	}
	if !errors.Is(det[0].Err, trace.ErrUnordered) || !errors.Is(svc.Err(), trace.ErrUnordered) {
		t.Fatalf("detached with %v (service reports %v), want trace.ErrUnordered", det[0].Err, svc.Err())
	}
	accepted := det[0].Events
	if accepted == 0 || accepted >= len(all) {
		t.Fatalf("service accepted %d of %d events", accepted, len(all))
	}
	prev, next := all[accepted-1], all[accepted]
	if next.Time > prev.Time || (next.Time == prev.Time && next.Seq >= prev.Seq) {
		t.Fatalf("detached at event %d, which does not go backwards", accepted)
	}
	if fan.Live() != 1 {
		t.Fatalf("%d sinks live, want the collector alone", fan.Live())
	}

	snap := svc.Snapshot()
	want := core.BuildDAG(core.BatchExtractModel(&trace.Trace{Events: all[:accepted]}))
	if got, want := core.ToDOT(snap.DAG, "g"), core.ToDOT(want, "g"); got != want {
		t.Fatalf("model after detachment differs from the batch model of the accepted prefix\n--- snapshot ---\n%s--- batch ---\n%s", got, want)
	}
	if len(snap.DAG.Vertices) == 0 {
		t.Fatal("accepted prefix synthesized an empty DAG")
	}
}
