package core

import (
	"fmt"
	"sync/atomic"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// ModelBuilder is the streaming form of Algorithm 1 and Algorithm 2: a
// trace.Sink that folds each event into the synthesis engine the moment
// it is observed, so Finish only resolves the pending client lookups
// and materializes the model.
//
// A ModelBuilder from NewModelBuilder keeps every callback instance and
// its writes, because the analyses of its Model (ChainLatencies, the
// validation experiment) read them. The DAG-only
// sinks built on it, SynthesizeSink and SnapshotService, keep
// statistics alone: their callbacks have nil Instances. Either way each
// callback carries its ExecStats and, for a timer, its Period.
//
// Memory: no event is retained, ROS or scheduler. Scheduler events —
// the bulk of any kernel-traced run — charge or suspend the open
// execution-time windows and are gone; ROS events advance their PID's
// extraction state and leave behind only the values Algorithm 1's
// caller and client searches need (one callback ID per request write,
// one entry per take_response and take_type_erased_response) and, in a
// NewModelBuilder, the callbacks' instances.
//
// Events must arrive in (Time, Seq) order — exactly what the streaming
// drain (tracers.Bundle.StreamTo) and the store's merged read deliver,
// including across successive periodic drains. The order is checked at
// every event: on the first one that goes backwards the builder fails
// with trace.ErrUnordered, ignores every later event, and reports the
// error through Err, so an IsolatingMultiSink detaches it instead of
// letting it synthesize a wrong model.
type ModelBuilder struct {
	eng    *snapEngine
	sched  uint64 // scheduler events folded, for Snapshot.FoldedSched
	events uint64 // events folded, ROS + sched

	// order checks each event against the last one folded; firstTime is
	// the first event's time, unset while events is 0.
	order     trace.OrderCheck
	firstTime sim.Time

	err atomic.Pointer[error] // sticky; read without the observer's locks
}

// NewModelBuilder returns an empty builder that keeps every instance.
func NewModelBuilder() *ModelBuilder {
	b := newStatsBuilder()
	b.eng.keep = true
	return b
}

// newStatsBuilder returns an empty builder that keeps statistics only.
func newStatsBuilder() *ModelBuilder {
	return &ModelBuilder{eng: newSnapEngine()}
}

// Observe implements trace.Sink.
func (b *ModelBuilder) Observe(e trace.Event) { b.observe(&e) }

// observe folds *e; the engine reads it only during the call.
func (b *ModelBuilder) observe(e *trace.Event) {
	if b.err.Load() != nil {
		return
	}
	if err := b.order.Check(e); err != nil {
		failed := fmt.Errorf("core: model builder: %w", err)
		b.err.Store(&failed)
		return
	}
	if b.events == 0 {
		b.firstTime = e.Time
	}
	b.events++
	if e.Kind == trace.KindSchedSwitch || e.Kind == trace.KindSchedWakeup {
		b.sched++
	}
	b.eng.observe(e)
}

// Err reports the builder's sticky failure: a trace.ErrUnordered if an
// event arrived out of (Time, Seq) order, else nil. It implements
// trace.ErrSink and is safe to call concurrently with Observe.
func (b *ModelBuilder) Err() error {
	if p := b.err.Load(); p != nil {
		return *p
	}
	return nil
}

// EventsFolded reports how many events, ROS and scheduler, were folded.
// An event refused for its order is not counted.
func (b *ModelBuilder) EventsFolded() uint64 { return b.events }

// Span reports the times of the first and last events folded (zero
// values before the first), as trace.SpanTracker does for an ordered
// stream.
func (b *ModelBuilder) Span() (first, last sim.Time) { return b.firstTime, b.order.Last() }

// Finish returns the model of everything observed so far. It does not
// consume the builder: more events may be observed and Finish called
// again, so a long-running tracer can re-synthesize periodically while
// the session continues.
func (b *ModelBuilder) Finish() *Model {
	b.eng.resolvePending()
	return b.eng.materialize()
}

// SynthesizeSink couples a ModelBuilder to DAG synthesis: stream a
// session (or several segments) into it, then call DAG. It keeps
// statistics only, so its memory does not grow with the number of
// callback instances; its Finish returns callbacks without Instances.
type SynthesizeSink struct {
	ModelBuilder
}

// DAG builds the precedence DAG from everything observed so far.
func (s *SynthesizeSink) DAG() *DAG { return BuildDAG(s.Finish()) }

// NewSynthesizeSink returns an empty synthesis sink.
func NewSynthesizeSink() *SynthesizeSink {
	return &SynthesizeSink{ModelBuilder: ModelBuilder{eng: newSnapEngine()}}
}
