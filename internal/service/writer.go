// Package service holds the reusable pieces of a long-running tracing
// service. SessionWriter is the first: the hardened segment-persistence
// stage of a drain loop, factored out of cmd/rostracer so the future
// multi-session daemon (see ROADMAP) drives the same code. It turns the
// store's fail-stop SegmentWriter into a degraded-mode pipeline stage:
// write failures retry with bounded exponential backoff, a persistently
// failing segment rotates to a fresh file (replaying the events the
// failed one held), and while the disk is down entirely events spill
// into a bounded in-memory buffer with exact drop accounting when it
// overflows. No partial segment file is ever left on disk: a segment
// that cannot be durably closed is removed.
package service

import (
	"os"
	"time"

	"github.com/tracesynth/rostracer/internal/trace"
)

// Policy bounds the degradation machinery.
type Policy struct {
	// MaxAttempts is how many fresh segment files one failure may try
	// (open + replay) before the writer declares the disk down. Default 3.
	// The sleep between attempts starts at backoffBase and doubles up to
	// backoffMax.
	MaxAttempts int
	// SpillCapacity bounds the in-memory buffer of not-yet-durable events
	// (the current segment's replay buffer while the disk is up, the
	// spill buffer while it is down). Beyond it, events ride the open
	// segment unreplayably (up) or drop with accounting (down).
	// Default 65536.
	SpillCapacity int
	// Sleep is the backoff sleeper; nil means time.Sleep. Tests and the
	// chaos harness inject a counter to keep fault runs fast and
	// deterministic.
	Sleep func(time.Duration)
}

// The retry backoff: backoffBase before the first retry, doubling per
// attempt up to backoffMax.
const (
	backoffBase = 10 * time.Millisecond
	backoffMax  = time.Second
)

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.SpillCapacity <= 0 {
		p.SpillCapacity = 65536
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Stats is the writer's reconciliation ledger. At every quiescent point
// Observed == Persisted + Dropped + Pending, and after Close Pending is
// zero — the exact-accounting invariant the chaos experiment asserts.
type Stats struct {
	Observed  uint64 // events handed to Observe
	Persisted uint64 // events in durably closed segments
	Dropped   uint64 // events lost: spill overflow, or unreplayable on a failed segment
	Retries   int    // backoff retries taken
	Rotations int    // segment files abandoned (and removed) mid-session
	Segments  int    // segments durably closed
	SpillPeak int    // high-water mark of the in-memory buffer
	Down      int    // recovery rounds that ended with the disk still down
	LastErr   error  // most recent persistence error
}

// Degraded reports whether the session lost events or needed recovery.
func (s Stats) Degraded() bool {
	return s.Dropped > 0 || s.Rotations > 0 || s.Down > 0
}

// SegmentResult summarizes one EndSegment.
type SegmentResult struct {
	Persisted int  // events made durable by this close (includes replayed spill)
	Down      bool // the writer is in spill mode after this segment
}

// SessionWriter persists one session's event stream as store segments
// with graceful degradation. Use it per drain window:
//
//	w.BeginSegment()
//	bundle.StreamTo(w)       // w is a trace.Sink
//	res := w.EndSegment()
//
// and Close once at session end. Not safe for concurrent use; one drain
// loop owns a writer, like every other stage of the streaming pipeline.
type SessionWriter struct {
	store   *trace.Store
	session string
	pol     Policy

	segIdx int                  // next segment file index to allocate
	cur    *trace.SegmentWriter // open segment; nil while down
	// buf holds the not-yet-durable events, bounded by SpillCapacity:
	// the open segment's replay buffer while the disk is up, the spill
	// buffer while it is down. unbuffered counts events beyond the bound
	// that were still written to the open segment — durable if the
	// segment closes, unreplayable (dropped) if it fails.
	buf        []trace.Event
	unbuffered uint64
	down       bool // spill mode: last recovery round exhausted its budget

	stats  Stats
	closed bool
}

// NewSessionWriter creates a writer for one session on store.
func NewSessionWriter(store *trace.Store, session string, pol Policy) *SessionWriter {
	return &SessionWriter{store: store, session: session, pol: pol.withDefaults()}
}

// Stats returns the current ledger.
func (w *SessionWriter) Stats() Stats { return w.stats }

// Pending reports events observed but not yet durable or dropped.
func (w *SessionWriter) Pending() int { return len(w.buf) + int(w.unbuffered) }

// Down reports whether the writer is in spill (disk-down) mode.
func (w *SessionWriter) Down() bool { return w.down }

// backoff sleeps for the attempt-th retry (1-based) and counts it.
func (w *SessionWriter) backoff(attempt int) {
	d := backoffBase << (attempt - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	w.stats.Retries++
	w.pol.Sleep(d)
}

// discard abandons the open segment: close whatever can close, remove
// the file so no partial record is ever left looking like a segment, and
// account the unreplayable overflow as dropped.
func (w *SessionWriter) discard() {
	if w.cur == nil {
		return
	}
	w.stats.LastErr = w.cur.Close()
	if path := w.cur.Path(); path != "" {
		os.Remove(path)
	}
	w.cur = nil
	w.stats.Rotations++
	w.stats.Dropped += w.unbuffered
	w.unbuffered = 0
}

// open tries to start the next segment file and replay buf into it.
// Reports false if the open itself failed or the replay tripped the
// writer's sticky error.
func (w *SessionWriter) open() bool {
	sw, err := w.store.WriteSegment(w.session, w.segIdx)
	if err != nil {
		w.stats.LastErr = err
		return false
	}
	w.segIdx++
	w.cur = sw
	for _, e := range w.buf {
		sw.Observe(e)
	}
	// Flush now: a dead disk must fail this open attempt itself, not
	// surface records later after the drain believed the segment was
	// healthy (Observe buffers, so a write error otherwise hides until a
	// buffer boundary).
	if err := sw.Flush(); err != nil {
		w.stats.LastErr = err
		w.discard()
		return false
	}
	w.down = false
	return true
}

// recover runs the bounded retry loop: up to MaxAttempts fresh segment
// files, with exponential backoff between attempts. On exhaustion the
// writer transitions to spill mode.
func (w *SessionWriter) recover() {
	for attempt := 1; attempt <= w.pol.MaxAttempts; attempt++ {
		if attempt > 1 {
			w.backoff(attempt - 1)
		}
		if w.open() {
			return
		}
	}
	w.down = true
	w.stats.Down++
}

// BeginSegment opens the next segment. While the disk is down this is
// the periodic retry point: it attempts recovery and, on success, the
// new segment starts with the replayed spill. Calling it with a segment
// already open is a no-op (EndSegment first).
func (w *SessionWriter) BeginSegment() {
	if w.closed || w.cur != nil {
		return
	}
	w.recover()
}

// Observe implements trace.Sink.
func (w *SessionWriter) Observe(e trace.Event) {
	if w.closed {
		return
	}
	w.stats.Observed++
	if len(w.buf) < w.pol.SpillCapacity {
		w.buf = append(w.buf, e)
		if len(w.buf) > w.stats.SpillPeak {
			w.stats.SpillPeak = len(w.buf)
		}
	} else if w.cur == nil {
		// Spill overflow with no disk to absorb it: the event is gone,
		// and says so in the ledger.
		w.stats.Dropped++
		return
	} else {
		w.unbuffered++
	}
	if w.cur != nil {
		w.cur.Observe(e)
		if w.cur.Err() != nil {
			w.stats.LastErr = w.cur.Err()
			w.discard()
			w.recover()
		}
	}
}

// EndSegment durably closes the open segment. On close failure the
// segment rotates like a write failure — remove, backoff, fresh file,
// replay, close again — bounded by MaxAttempts. Only a successful Close
// moves events from pending to persisted.
func (w *SessionWriter) EndSegment() SegmentResult {
	if w.closed {
		return SegmentResult{}
	}
	if w.cur == nil {
		return SegmentResult{Down: w.down}
	}
	for attempt := 1; ; attempt++ {
		if w.cur != nil {
			if err := w.cur.Close(); err == nil {
				n := len(w.buf) + int(w.unbuffered)
				w.stats.Persisted += uint64(n)
				w.stats.Segments++
				w.buf = w.buf[:0]
				w.unbuffered = 0
				w.cur = nil
				return SegmentResult{Persisted: n}
			}
			w.discard()
		}
		// Both a failed close and a failed re-open burn one attempt of
		// the budget.
		if attempt >= w.pol.MaxAttempts {
			w.down = true
			w.stats.Down++
			return SegmentResult{Down: true}
		}
		w.backoff(attempt)
		w.open()
	}
}

// Close ends the session: closes any open segment, makes one last
// recovery attempt for spilled events, and converts whatever remains
// unpersistable into accounted drops. After Close, Observed ==
// Persisted + Dropped exactly.
func (w *SessionWriter) Close() SegmentResult {
	if w.closed {
		return SegmentResult{}
	}
	res := SegmentResult{}
	if w.cur != nil {
		res = w.EndSegment()
	}
	if len(w.buf) > 0 {
		// Disk was down at session end; try once more to land the spill.
		w.recover()
		if w.cur != nil {
			r2 := w.EndSegment()
			res.Persisted += r2.Persisted
			res.Down = r2.Down
		}
	}
	if n := len(w.buf) + int(w.unbuffered); n > 0 {
		w.stats.Dropped += uint64(n)
		w.buf = nil
		w.unbuffered = 0
		res.Down = true
	}
	w.closed = true
	return res
}
