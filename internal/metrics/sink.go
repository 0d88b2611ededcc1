package metrics

import (
	"fmt"

	"github.com/tracesynth/rostracer/internal/trace"
)

// Sink folds the event stream into the registry online: per-kind event
// counters, per-topic publish-latency histograms (take probes carry the
// DDS source timestamp, so take-time minus SrcTS is the end-to-end
// publish→take latency the paper's synthesis consumes), and per-node
// callback exec-time distributions (callback-start to callback-end per
// executor PID, attributed to the node that P1 bound to that PID).
//
// The per-event path is allocation-free at steady state: kind counters
// live in a fixed array, topic/node histogram cells are cached in
// sink-local maps keyed by the decoder's interned strings (map reads
// don't allocate), and open-callback tracking reuses map slots per PID.
// Sink is not goroutine-safe — it rides a single drain like every other
// trace.Sink here.
//
// Events must arrive in (Time, Seq) order, or the latency and exec-time
// histograms would fold a reordered stream silently. On the first event
// that goes backwards the sink fails with a sticky trace.ErrUnordered,
// ignores every later event, and reports the error through Err, so an
// IsolatingMultiSink detaches it with accounting.
type Sink struct {
	kinds   [64]*Counter // dense Kind space; index by uint8 kind
	kindVec CounterVec
	pubVec  HistogramVec
	execVec HistogramVec

	topicHist map[string]*Histogram
	nodeHist  map[string]*Histogram
	pidNode   map[uint32]string
	openCB    map[uint32]int64 // PID -> callback-start time
	events    uint64

	order trace.OrderCheck // against the last event folded
	err   error            // sticky
}

// NewSink registers the sink's families on r and returns a sink ready to
// attach to the drain fan-out.
func NewSink(r *Registry) *Sink {
	return &Sink{
		kindVec:   r.CounterVec("rostracer_events_total", "Events observed by the metrics sink, by probe kind.", "kind"),
		pubVec:    r.HistogramVec("rostracer_publish_latency_ns", "Publish-to-take latency per topic (take-probe time minus DDS source timestamp), nanoseconds.", "topic", DefaultTimeBuckets()),
		execVec:   r.HistogramVec("rostracer_callback_exec_ns", "Callback execution time per node (start-probe to end-probe on the executor PID), nanoseconds.", "node", DefaultTimeBuckets()),
		topicHist: make(map[string]*Histogram),
		nodeHist:  make(map[string]*Histogram),
		pidNode:   make(map[uint32]string),
		openCB:    make(map[uint32]int64),
	}
}

// Events reports how many events the sink has folded.
func (s *Sink) Events() uint64 { return s.events }

// Err reports the sink's sticky failure: a trace.ErrUnordered if an
// event arrived out of (Time, Seq) order, else nil. It implements
// trace.ErrSink.
func (s *Sink) Err() error { return s.err }

// Observe implements trace.Sink.
func (s *Sink) Observe(e trace.Event) {
	if s.err != nil {
		return
	}
	if err := s.order.Check(&e); err != nil {
		s.err = fmt.Errorf("metrics: sink: %w", err)
		return
	}
	s.events++
	k := uint8(e.Kind) & 63
	c := s.kinds[k]
	if c == nil {
		c = s.kindVec.With(e.Kind.String())
		s.kinds[k] = c
	}
	c.Inc()

	switch {
	case e.Kind == trace.KindCreateNode:
		s.pidNode[e.PID] = e.Node
	case e.Kind.IsCBStart():
		s.openCB[e.PID] = int64(e.Time)
	case e.Kind.IsCBEnd():
		if start, ok := s.openCB[e.PID]; ok {
			delete(s.openCB, e.PID)
			node, ok := s.pidNode[e.PID]
			if !ok {
				node = "unknown"
			}
			h := s.nodeHist[node]
			if h == nil {
				h = s.execVec.With(node)
				s.nodeHist[node] = h
			}
			h.Observe(int64(e.Time) - start)
		}
	case e.Kind.IsTake():
		if e.Topic != "" && e.SrcTS > 0 && int64(e.Time) >= e.SrcTS {
			h := s.topicHist[e.Topic]
			if h == nil {
				h = s.pubVec.With(e.Topic)
				s.topicHist[e.Topic] = h
			}
			h.Observe(int64(e.Time) - e.SrcTS)
		}
	}
}
