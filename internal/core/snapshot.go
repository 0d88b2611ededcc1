package core

import (
	"sync"

	"github.com/tracesynth/rostracer/internal/trace"
)

// SnapshotService puts a live synthesis loop on top of ModelBuilder: a
// long-running tracer streams drained events in (concurrently, batch by
// batch) while periodic Snapshot calls hand out the current model and
// DAG.
//
// Every event is folded into the synthesis engine as it is observed, so
// the service holds no event buffer and a Snapshot never re-traverses
// the stream: it resolves the pending client lookups and materializes
// the model from the engine's accumulators, in O(callbacks). One lock
// covers both: Observe holds it for one event fold, Snapshot for the
// materialization (including the timer periods, which read live running
// medians). The DAG is then built outside the lock from the
// materialized model: its slices are clamped, so the engine only ever
// appends behind them.
//
// The service is a trace.ErrSink: an event out of (Time, Seq) order
// fails it for good (see ModelBuilder), and Err reports that without
// taking the lock.
type SnapshotService struct {
	mu  sync.Mutex // guards b, obs and seq
	b   *ModelBuilder
	obs uint64 // total events observed, ROS + sched
	seq int
}

// Snapshot is one point-in-time synthesis of the stream so far. Counters
// are cumulative, so across successive snapshots every one of them is
// non-decreasing — the monotonicity the race test asserts.
type Snapshot struct {
	Seq         int    // 1-based snapshot number
	Events      uint64 // events observed when the snapshot was taken
	FoldedSched uint64 // sched events folded online (never retained)
	Model       *Model
	DAG         *DAG
}

// NewSnapshotService returns a service over an empty builder.
func NewSnapshotService() *SnapshotService {
	return &SnapshotService{b: NewModelBuilder()}
}

// Observe implements trace.Sink. Safe for concurrent use; events must
// still arrive in (Time, Seq) order overall, so concurrent producers
// must partition the stream the way the drain loop does (whole drained
// segments, one producer at a time per segment).
func (s *SnapshotService) Observe(e trace.Event) {
	s.mu.Lock()
	s.b.Observe(e)
	s.obs++
	s.mu.Unlock()
}

// ObserveBatch folds a whole drained batch under one lock acquisition,
// for producers that already hold events in batches. (The rostracer
// drain loop streams per-event through Observe instead — its segments
// are never materialized, and one uncontended lock per event is noise
// next to record decode.)
func (s *SnapshotService) ObserveBatch(evs []trace.Event) {
	s.mu.Lock()
	for _, e := range evs {
		s.b.Observe(e)
	}
	s.obs += uint64(len(evs))
	s.mu.Unlock()
}

// Err implements trace.ErrSink: the builder's sticky order failure.
func (s *SnapshotService) Err() error { return s.b.Err() }

// EventsObserved reports how many events the service has folded so far.
func (s *SnapshotService) EventsObserved() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs
}

// Snapshot synthesizes the model and DAG from everything observed so
// far.
func (s *SnapshotService) Snapshot() Snapshot {
	s.mu.Lock()
	s.seq++
	snap := Snapshot{Seq: s.seq, Events: s.obs, FoldedSched: s.b.sched}
	m, periodOf := s.b.finish()
	s.mu.Unlock()

	snap.Model = m
	snap.DAG = buildDAG(m, periodOf)
	return snap
}
