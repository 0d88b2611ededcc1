package metrics

import (
	"strconv"

	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/service"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// PipelineMetrics bridges the pipeline's existing accounting into the
// registry by snapshot: the drain loop calls the Update* methods once
// per segment (and once at shutdown), copying each cumulative ledger
// into atomic cells. Snapshotting — rather than reading the sources at
// scrape time — is what makes the /metrics endpoint safe to hit from an
// HTTP goroutine while the simulation is mid-drain: the ring, scheduler
// and writer counters are plain fields owned by the drive loop, but a
// scrape only ever touches the atomic cells.
//
// Counter cells fed by Set must come from monotone sources; every
// source here (lost/bytes/drain/stats ledgers) only grows, and the
// chaos harness asserts scrape-over-scrape monotonicity while faults
// fire.
type PipelineMetrics struct {
	ringPending GaugeVec
	ringLost    CounterVec
	ringBytes   CounterVec

	drainPeriod *Gauge
	drains      *Counter

	storeObserved  *Counter
	storePersisted *Counter
	storeDropped   *Counter
	storeSegments  *Counter
	storeRotations *Counter
	storeRetries   *Counter
	storeDownRds   *Counter
	storePending   *Gauge
	storeSpillPeak *Gauge
	storeDown      *Gauge

	internHits   *Gauge
	internMisses *Gauge
	internCapped *Gauge

	sinkDetached *Counter
	sinksLive    *Gauge

	synthesisEvents *Counter

	cpuLabels []string // cached "0", "1", ... strings
}

// NewPipelineMetrics registers the pipeline families on r.
func NewPipelineMetrics(r *Registry) *PipelineMetrics {
	return &PipelineMetrics{
		ringPending: r.GaugeVec("rostracer_ring_pending_records", "Records emitted but not yet drained, per CPU (summed across the three tracer rings).", "cpu"),
		ringLost:    r.CounterVec("rostracer_ring_lost_records_total", "Records dropped to per-CPU ring capacity or injected ring faults, per CPU.", "cpu"),
		ringBytes:   r.CounterVec("rostracer_ring_bytes_total", "Cumulative perf-buffer payload bytes emitted, per CPU.", "cpu"),

		drainPeriod: r.Gauge("rostracer_drain_period_ns", "Current planned drain interval, nanoseconds."),
		drains:      r.Counter("rostracer_drains_total", "Drain observation windows completed."),

		storeObserved:  r.Counter("rostracer_store_observed_events_total", "Events handed to the session writer."),
		storePersisted: r.Counter("rostracer_store_persisted_events_total", "Events in durably closed segments."),
		storeDropped:   r.Counter("rostracer_store_dropped_events_total", "Events lost to spill overflow or unreplayable failed segments."),
		storeSegments:  r.Counter("rostracer_store_segments_total", "Segments durably closed."),
		storeRotations: r.Counter("rostracer_store_rotations_total", "Segment files abandoned mid-session."),
		storeRetries:   r.Counter("rostracer_store_retries_total", "Backoff retries taken by the session writer."),
		storeDownRds:   r.Counter("rostracer_store_down_rounds_total", "Recovery rounds that ended with the disk still down."),
		storePending:   r.Gauge("rostracer_store_pending_events", "Events observed but not yet durable or dropped."),
		storeSpillPeak: r.Gauge("rostracer_store_spill_peak_events", "High-water mark of the writer's in-memory spill buffer."),
		storeDown:      r.Gauge("rostracer_store_down", "1 while the writer is in spill (disk-down) mode."),

		internHits:   r.Gauge("rostracer_intern_hits", "Intern-table lookups served from the canonical string table (process-wide)."),
		internMisses: r.Gauge("rostracer_intern_misses", "Intern-table lookups that admitted a new string (process-wide)."),
		internCapped: r.Gauge("rostracer_intern_capped", "Intern-table lookups refused by the capacity cap — each re-pays a per-record allocation (process-wide)."),

		sinkDetached: r.Counter("rostracer_sink_detached_total", "Sinks detached from the drain fan-out after a sticky error."),
		sinksLive:    r.Gauge("rostracer_sinks_live", "Sinks currently attached to the drain fan-out."),

		synthesisEvents: r.Counter("rostracer_synthesis_events_total", "Events folded into the incremental timing-model synthesis."),
	}
}

func (p *PipelineMetrics) cpuLabel(cpu int) string {
	for len(p.cpuLabels) <= cpu {
		p.cpuLabels = append(p.cpuLabels, strconv.Itoa(len(p.cpuLabels)))
	}
	return p.cpuLabels[cpu]
}

// UpdateBundle snapshots the per-CPU ring fill/lost/bytes gauges.
func (p *PipelineMetrics) UpdateBundle(b *tracers.Bundle) {
	for cpu, st := range b.PerCPU() {
		l := p.cpuLabel(cpu)
		p.ringPending.With(l).Set(int64(st.Pending))
		p.ringLost.With(l).Set(st.Lost)
		p.ringBytes.With(l).Set(st.Bytes)
	}
}

// UpdateDrain snapshots the drain cadence: the planned next period and
// the windows drained so far. The third argument is unused; every drain
// covers every ring.
func (p *PipelineMetrics) UpdateDrain(periodNs int64, drains, _ int) {
	p.drainPeriod.Set(periodNs)
	p.drains.Set(uint64(drains))
}

// UpdateWriter snapshots the session writer's reconciliation ledger.
func (p *PipelineMetrics) UpdateWriter(w *service.SessionWriter) {
	st := w.Stats()
	p.storeObserved.Set(st.Observed)
	p.storePersisted.Set(st.Persisted)
	p.storeDropped.Set(st.Dropped)
	p.storeSegments.Set(uint64(st.Segments))
	p.storeRotations.Set(uint64(st.Rotations))
	p.storeRetries.Set(uint64(st.Retries))
	p.storeDownRds.Set(uint64(st.Down))
	p.storePending.Set(int64(w.Pending()))
	p.storeSpillPeak.Set(int64(st.SpillPeak))
	down := int64(0)
	if w.Down() {
		down = 1
	}
	p.storeDown.Set(down)
}

// UpdateIntern snapshots the process-global intern-table counters as
// gauges (the table is shared across sessions, so per-session counter
// semantics would lie after the first session).
func (p *PipelineMetrics) UpdateIntern() {
	hits, misses, capped := trace.InternStats()
	p.internHits.Set(int64(hits))
	p.internMisses.Set(int64(misses))
	p.internCapped.Set(int64(capped))
}

// UpdateSinks snapshots the fan-out's lifecycle state.
func (p *PipelineMetrics) UpdateSinks(m *trace.IsolatingMultiSink) {
	p.sinkDetached.Set(uint64(len(m.Detached())))
	p.sinksLive.Set(int64(m.Live()))
}

// UpdateSynthesis snapshots the incremental model builder's progress.
func (p *PipelineMetrics) UpdateSynthesis(s *core.SnapshotService) {
	p.synthesisEvents.Set(s.EventsObserved())
}
