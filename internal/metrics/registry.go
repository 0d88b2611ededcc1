// Package metrics is the tracer's self-observability layer: a small
// streaming metrics registry (counters, gauges, fixed-bucket histograms,
// all atomic cells) with Prometheus text exposition, a trace.Sink that
// folds the event stream into latency/exec-time distributions online,
// threshold alert rules evaluated against the registry, and snapshot
// instrumentation for the pipeline's existing accounting (ring
// fill/lost/bytes, drain periods, the session writer's spill/drop
// ledger, intern-table pressure, sink detachments).
//
// The hot path is allocation-free by construction: a metric cell is one
// or a few atomic words, vec lookups are read-locked map hits on
// canonical (interned) label strings, and the Sink caches cell pointers
// so the per-event fold never touches the registry lock at steady
// state. Everything scrape-shaped (exposition, label sorting, number
// formatting) happens at read time on the scraping goroutine.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone metric cell. Inc grows it on the hot path;
// Set exists for counters fed by snapshotting an external cumulative
// ledger (ring lost counts, writer stats) — such feeds must themselves
// be monotone, which the chaos harness asserts across scrapes.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set overwrites the value from an external cumulative source. The
// source must be monotone or the exposition stops being a counter.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value reports the current value.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable metric cell.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution with atomic cells. Bounds
// are inclusive upper bounds in the observed unit (nanoseconds for the
// time distributions); observations above the last bound land in the
// implicit +Inf bucket. Cells are per-bucket (non-cumulative); the
// exposition accumulates them into Prometheus `le` semantics at scrape
// time so the hot path is exactly two atomic adds and one increment.
type Histogram struct {
	bounds []int64
	cells  []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Int64
}

// Observe folds one value into the distribution.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.cells[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// DefaultTimeBuckets is the 1-2-5 ladder from 1µs to 10s the time
// distributions (publish latency, callback exec time) use, in
// nanoseconds.
func DefaultTimeBuckets() []int64 {
	out := make([]int64, 0, 22)
	for mag := int64(1_000); mag <= 1_000_000_000; mag *= 10 {
		out = append(out, mag, 2*mag, 5*mag)
	}
	return append(out, 10_000_000_000)
}

// metricKind is the exposition TYPE of one family.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with zero or one label dimension. Unlabeled
// metrics store their single cell under the "" key. Every cell is of the
// family's kind: *Counter, *Gauge or *Histogram.
type family struct {
	name, help string
	kind       metricKind
	labelKey   string // "" for unlabeled metrics
	bounds     []int64

	mu    sync.RWMutex
	cells map[string]any
}

// cellFor returns the cell for the label value, creating it with
// newCell on first sight.
func cellFor[T any](f *family, label string, newCell func() *T) *T {
	f.mu.RLock()
	c, ok := f.cells[label]
	f.mu.RUnlock()
	if ok {
		return c.(*T)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.cells[label]; ok {
		return c.(*T)
	}
	t := newCell()
	f.cells[label] = t
	return t
}

// cellValue reads a counter or gauge; a histogram reports its count.
func cellValue(c any) float64 {
	switch c := c.(type) {
	case *Counter:
		return float64(c.Value())
	case *Gauge:
		return float64(c.Value())
	default:
		return float64(c.(*Histogram).Count())
	}
}

// CounterVec is a counter family keyed by one label value.
type CounterVec struct{ f *family }

// GaugeVec is a gauge family keyed by one label value.
type GaugeVec struct{ f *family }

// HistogramVec is a histogram family keyed by one label value.
type HistogramVec struct{ f *family }

// With returns the counter cell for the label value, creating it on
// first sight. The returned pointer is stable; hot paths should cache
// it instead of re-resolving per event.
func (v CounterVec) With(label string) *Counter {
	return cellFor(v.f, label, func() *Counter { return &Counter{} })
}

// With returns the gauge cell for the label value, creating it on first
// sight.
func (v GaugeVec) With(label string) *Gauge {
	return cellFor(v.f, label, func() *Gauge { return &Gauge{} })
}

// With returns the histogram cell for the label value, creating it on
// first sight.
func (v HistogramVec) With(label string) *Histogram {
	return cellFor(v.f, label, func() *Histogram { return newHistogram(v.f.bounds) })
}

func newHistogram(bounds []int64) *Histogram {
	return &Histogram{bounds: bounds, cells: make([]atomic.Uint64, len(bounds)+1)}
}

// Registry holds metric families by name. Registration is idempotent:
// re-registering a name returns the existing family (so a per-process
// registry survives sequential sessions re-wiring their metrics), and
// registering it with a different type or label key panics — that is a
// programming error, not an operational condition.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, labelKey string, bounds []int64) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.families[name]; !ok {
			f = &family{name: name, help: help, kind: kind, labelKey: labelKey, bounds: bounds, cells: make(map[string]any)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind || f.labelKey != labelKey {
		panic(fmt.Sprintf("metrics: %s re-registered as %s{%s}, was %s{%s}",
			name, kind, labelKey, f.kind, f.labelKey))
	}
	return f
}

// Counter registers (or returns) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	return CounterVec{r.family(name, help, kindCounter, "", nil)}.With("")
}

// Gauge registers (or returns) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return GaugeVec{r.family(name, help, kindGauge, "", nil)}.With("")
}

// CounterVec registers (or returns) a counter family with one label
// dimension.
func (r *Registry) CounterVec(name, help, labelKey string) CounterVec {
	return CounterVec{r.family(name, help, kindCounter, labelKey, nil)}
}

// GaugeVec registers (or returns) a gauge family with one label
// dimension.
func (r *Registry) GaugeVec(name, help, labelKey string) GaugeVec {
	return GaugeVec{r.family(name, help, kindGauge, labelKey, nil)}
}

// HistogramVec registers (or returns) a histogram family with one label
// dimension and the given inclusive upper bounds.
func (r *Registry) HistogramVec(name, help, labelKey string, bounds []int64) HistogramVec {
	return HistogramVec{r.family(name, help, kindHistogram, labelKey, bounds)}
}

// Value reads one counter or gauge by family name and label value, for
// alert evaluation. The empty label on a labeled family sums every cell
// — the total a threshold rule usually wants (per-CPU lost counts, say).
// Histograms report their observation count. ok is false when the
// family (or, for a specific label, the cell) does not exist.
func (r *Registry) Value(name, label string) (v float64, ok bool) {
	r.mu.RLock()
	f, found := r.families[name]
	r.mu.RUnlock()
	if !found {
		return 0, false
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if label != "" || f.labelKey == "" {
		c, ok := f.cells[label]
		if !ok {
			return 0, false
		}
		return cellValue(c), true
	}
	for _, c := range f.cells {
		v += cellValue(c)
	}
	return v, len(f.cells) > 0
}

// sortedFamilies snapshots the family list in name order for exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
