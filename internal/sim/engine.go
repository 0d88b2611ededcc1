// Package sim provides the discrete-event simulation engine on which the
// simulated operating system, DDS transport, and ROS2 middleware run.
//
// The engine owns a virtual nanosecond clock. Components schedule closures
// at absolute or relative virtual times; Run drains the event queue in
// (time, sequence) order so that simultaneous events execute in their
// scheduling order, which keeps every experiment deterministic.
package sim

import (
	"fmt"
	"math"
)

// Time is a virtual timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Milliseconds reports the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (t Time) String() string     { return fmt.Sprintf("%dns", int64(t)) }
func (d Duration) String() string { return fmt.Sprintf("%dns", int64(d)) }

// slot holds one scheduled event's callback. Slots are recycled through
// the engine's free list; gen advances every time a slot is released, so
// an EventID naming an earlier occupant never matches a later one.
type slot struct {
	fn   func()
	gen  uint32
	dead bool
}

// entry is one heap element: the (at, seq) ordering key and the slot it
// schedules. Keeping the key in the heap array lets sifts compare without
// touching the slots.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// EventID identifies a scheduled event so it can be cancelled. The zero
// value names no event.
type EventID struct {
	slot int32
	gen  uint32 // slot generations start at 1
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	heap  []entry // binary min-heap on (at, seq)
	slots []slot
	free  []int32 // released slot indices
	// executed counts events dispatched so far; useful as a progress and
	// runaway guard in tests.
	executed uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events dispatched so far.
func (e *Engine) Executed() uint64 { return e.executed }

// At schedules fn at absolute virtual time at. Scheduling in the past is an
// error that panics: it always indicates a simulator bug.
func (e *Engine) At(at Time, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var i int32
	if n := len(e.free); n > 0 {
		i = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{gen: 1})
	}
	s := &e.slots[i]
	s.fn = fn
	e.heap = append(e.heap, entry{at: at, seq: e.seq, slot: i})
	e.seq++
	e.up(len(e.heap) - 1)
	return EventID{slot: i, gen: s.gen}
}

// After schedules fn d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a pending event in O(1): the event stays in the heap,
// marked dead, until it reaches the top. Cancelling an already-fired or
// already-cancelled event is a no-op, even once its slot holds a newer
// event (a stale ID would have to outlive 2^32 reuses of its slot to
// match again).
func (e *Engine) Cancel(id EventID) {
	if id.gen == 0 || int(id.slot) >= len(e.slots) {
		return
	}
	s := &e.slots[id.slot]
	if s.gen != id.gen || s.dead {
		return
	}
	s.dead = true
	s.fn = nil
}

// Run executes events in order until the queue empties or the clock
// passes until. It returns the time at which it stopped.
func (e *Engine) Run(until Time) Time {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if !e.slots[top.slot].dead && top.at > until {
			e.now = until
			return e.now
		}
		if fn := e.pop(); fn != nil {
			e.now = top.at
			e.executed++
			fn()
		}
	}
	// The queue drained. For a finite horizon the caller asked to observe
	// the system up to that wall-clock point, so the clock advances to it;
	// with an unbounded horizon the run-to-completion time is more useful,
	// so the clock stays at the last event.
	if until != MaxTime && e.now < until {
		e.now = until
	}
	return e.now
}

// pop removes the earliest event, releases its slot and returns its
// callback, or nil if the event was cancelled. The slot is free before
// the callback runs, so the callback may reuse it and cancelling the
// running event's own ID is a no-op.
func (e *Engine) pop() func() {
	i := e.heap[0].slot
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.down(0)
	}
	s := &e.slots[i]
	fn := s.fn // nil once cancelled
	gen := s.gen + 1
	if gen == 0 {
		gen = 1 // 0 stays reserved for the zero EventID
	}
	*s = slot{gen: gen}
	e.free = append(e.free, i)
	return fn
}

func (e *Engine) up(j int) {
	h := e.heap
	x := h[j]
	for j > 0 {
		p := (j - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = x
}

func (e *Engine) down(j int) {
	h := e.heap
	n := len(h)
	x := h[j]
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(x) {
			break
		}
		h[j] = h[c]
		j = c
	}
	h[j] = x
}
