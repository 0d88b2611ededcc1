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
// Memory: no event is retained, ROS or scheduler. Scheduler events —
// the bulk of any kernel-traced run — charge or suspend the open
// execution-time windows and are gone; ROS events advance their PID's
// extraction state and leave behind only the values Algorithm 1's
// caller and client searches need (one callback ID per request write,
// one entry per take_response and take_type_erased_response) and the
// callbacks' instances.
//
// Events must arrive in (Time, Seq) order — exactly what the streaming
// drain (tracers.Bundle.StreamTo) and the store's merged read deliver,
// including across successive periodic drains. The order is checked at
// every event: on the first one that goes backwards the builder fails
// with trace.ErrUnordered, ignores every later event, and reports the
// error through Err, so an IsolatingMultiSink detaches it instead of
// letting it synthesize a wrong model.
type ModelBuilder struct {
	eng   *snapEngine
	sched uint64

	// (lastTime, lastSeq) is the last event folded; seen is false before
	// the first one.
	lastTime sim.Time
	lastSeq  uint64
	seen     bool

	err atomic.Pointer[error] // sticky; read without the observer's locks
}

// NewModelBuilder returns an empty builder.
func NewModelBuilder() *ModelBuilder {
	return &ModelBuilder{eng: newSnapEngine()}
}

// Observe implements trace.Sink.
func (b *ModelBuilder) Observe(e trace.Event) {
	if b.err.Load() != nil {
		return
	}
	if b.seen && (e.Time < b.lastTime || (e.Time == b.lastTime && e.Seq < b.lastSeq)) {
		err := fmt.Errorf("core: model builder: %w: (%d, %d) after (%d, %d)",
			trace.ErrUnordered, e.Time, e.Seq, b.lastTime, b.lastSeq)
		b.err.Store(&err)
		return
	}
	b.lastTime, b.lastSeq, b.seen = e.Time, e.Seq, true
	if e.Kind == trace.KindSchedSwitch || e.Kind == trace.KindSchedWakeup {
		b.sched++
	}
	b.eng.observe(&e)
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

// SchedEventsFolded reports how many scheduler events streamed through
// without being retained.
func (b *ModelBuilder) SchedEventsFolded() uint64 { return b.sched }

// Finish returns the model of everything observed so far. It does not
// consume the builder: more events may be observed and Finish called
// again, so a long-running tracer can re-synthesize periodically while
// the session continues.
func (b *ModelBuilder) Finish() *Model {
	m, _ := b.finish()
	return m
}

// finish is Finish plus the timer periods captured with the model.
func (b *ModelBuilder) finish() (*Model, func(*Callback) sim.Duration) {
	b.eng.resolvePending()
	return b.eng.materialize()
}

// SynthesizeSink couples a ModelBuilder to DAG synthesis: stream a
// session (or several segments) into it, then call DAG. It is the
// streaming form of Synthesize.
type SynthesizeSink struct {
	ModelBuilder
}

// DAG builds the precedence DAG from everything observed so far.
func (s *SynthesizeSink) DAG() *DAG { return buildDAG(s.finish()) }

// NewSynthesizeSink returns an empty synthesis sink.
func NewSynthesizeSink() *SynthesizeSink {
	return &SynthesizeSink{ModelBuilder: ModelBuilder{eng: newSnapEngine()}}
}
