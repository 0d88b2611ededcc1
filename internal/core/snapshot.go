package core

import (
	"sync"

	"github.com/tracesynth/rostracer/internal/trace"
)

// SnapshotService puts a live synthesis loop on top of ModelBuilder: a
// long-running tracer streams drained events in (concurrently, batch by
// batch) while periodic Snapshot calls hand out the current model and
// DAG. Like SynthesizeSink it keeps statistics only: a snapshot's Model
// has no Instances, so the service's memory does not grow with the
// number of callback instances.
//
// Every event is folded into the synthesis engine as it is observed, so
// the service holds no event buffer and a Snapshot never re-traverses
// the stream: it resolves the pending client lookups and materializes
// the model from the engine's accumulators, in O(callbacks). One lock
// covers both: Observe holds it for one event fold, Snapshot for the
// materialization, which copies each callback's statistics and timer
// period into the model. The DAG is then built outside the lock from
// the materialized model: its slices are clamped, so the engine only
// ever appends behind them.
//
// The service is a trace.ErrSink: an event out of (Time, Seq) order
// fails it for good (see ModelBuilder), and Err reports that without
// taking the lock.
type SnapshotService struct {
	mu  sync.Mutex // guards b and seq
	b   *ModelBuilder
	seq int
}

// Snapshot is one point-in-time synthesis of the stream so far. Counters
// are cumulative, so across successive snapshots every one of them is
// non-decreasing — the monotonicity the race test asserts.
type Snapshot struct {
	Seq         int    // 1-based snapshot number
	Events      uint64 // events folded when the snapshot was taken
	FoldedSched uint64 // sched events folded online (never retained)
	Model       *Model
	DAG         *DAG
}

// NewSnapshotService returns a service over an empty builder.
func NewSnapshotService() *SnapshotService {
	return &SnapshotService{b: newStatsBuilder()}
}

// Observe implements trace.Sink. Safe for concurrent use; events must
// still arrive in (Time, Seq) order overall, so concurrent producers
// must partition the stream the way the drain loop does (whole drained
// segments, one producer at a time per segment).
func (s *SnapshotService) Observe(e trace.Event) {
	s.mu.Lock()
	s.b.observe(&e)
	s.mu.Unlock()
}

// Err implements trace.ErrSink: the builder's sticky order failure.
func (s *SnapshotService) Err() error { return s.b.Err() }

// EventsObserved reports how many events the service has folded so far.
// An event refused for its order, and every event after it, is not
// counted.
func (s *SnapshotService) EventsObserved() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.events
}

// Snapshot synthesizes the model and DAG from everything observed so
// far.
func (s *SnapshotService) Snapshot() Snapshot {
	s.mu.Lock()
	s.seq++
	snap := Snapshot{Seq: s.seq, Events: s.b.events, FoldedSched: s.b.sched}
	snap.Model = s.b.Finish()
	s.mu.Unlock()

	snap.DAG = BuildDAG(snap.Model)
	return snap
}
