package tracers

import (
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/sim"
)

// Adaptive drain scheduling: the backpressure policy for bounded rings.
//
// A fixed-period drain loop picks its period blind: too long and a hot
// CPU's ring overruns (records are lost and counted against that ring),
// too short and the poller burns wakeups draining nearly-empty rings.
// The capacity-planning sweep (harness.CapacityPlanExperiment) maps that
// trade-off offline; DrainScheduler closes the loop online, using the
// same observable the sweep reports — per-ring pending high-water marks
// and lost counts — to plan each next period so the worst ring is
// expected to reach targetFill of its capacity, no further.

// targetFill is the fraction of the ring capacity the worst ring should
// reach by the next drain; the 2x headroom absorbs rate growth between
// observations.
const targetFill = 0.5

// DrainObservation reports one observation window: the gauges read
// before the drain, and the interval planned from them.
type DrainObservation struct {
	// MaxPending is the largest single-ring undrained backlog across the
	// three tracers — the high-water mark the next period is planned
	// from.
	MaxPending int
	// MaxPendingCPU is the CPU owning that worst ring.
	MaxPendingCPU int
	// LostDelta counts records lost to ring overruns since the previous
	// observation (all rings).
	LostDelta uint64
	// Next is the planned next drain interval.
	Next sim.Duration
}

// DrainScheduler plans the drain cadence of one Bundle from per-ring
// pending/lost gauges. Call Observe after advancing the simulation by
// the current Interval and before draining (the drain clears the
// pending gauges the scheduler reads). It plans one global cadence from
// the worst ring, so every wakeup drains every ring (Bundle.StreamTo)
// and every drain is one (Time, Seq)-ordered stream.
type DrainScheduler struct {
	b          *Bundle
	minP, maxP sim.Duration // the planned interval's clamp
	capacity   int          // per-ring record bound of b's buffers; 0 is unbounded
	interval   sim.Duration
	lastLost   [3][]uint64 // per-tracer, per-CPU lost snapshots
}

// NewDrainScheduler plans drains for b within [minP, maxP]. The ring
// capacity it plans against is the one the bundle was built with
// (NewBundleCapacity). The initial interval is minP for bounded rings: a
// short calibration period that observes the actual fill rate before
// the scheduler trusts itself to back off. Unbounded rings cannot
// overrun, so the scheduler then always plans maxP; with minP == maxP it
// plans that one fixed period for any bundle.
func NewDrainScheduler(b *Bundle, minP, maxP sim.Duration) *DrainScheduler {
	minP = max(minP, 1)
	maxP = max(maxP, minP)
	s := &DrainScheduler{b: b, minP: minP, maxP: maxP, capacity: b.initPB.Capacity(), interval: minP}
	if s.capacity <= 0 {
		s.interval = maxP
	}
	return s
}

// Interval returns the current planned drain interval.
func (s *DrainScheduler) Interval() sim.Duration { return s.interval }

// Observe reads the per-ring gauges accumulated over the elapsed window
// and plans the next interval: the worst ring's demand (pending
// high-water plus records it lost) defines the observed fill rate, and
// the next period is sized so that rate fills targetFill of the
// capacity. It must be called after the simulation advanced and before
// the rings are drained.
func (s *DrainScheduler) Observe(elapsed sim.Duration) DrainObservation {
	obs := DrainObservation{Next: s.maxP}
	worstDemand := 0
	s.b.walkRings(func(t, cpu int, st ebpf.RingStats) {
		last := &s.lastLost[t]
		for len(*last) <= cpu {
			*last = append(*last, 0)
		}
		delta := st.Lost - (*last)[cpu]
		(*last)[cpu] = st.Lost
		obs.LostDelta += delta

		if st.Pending > obs.MaxPending {
			obs.MaxPending, obs.MaxPendingCPU = st.Pending, cpu
		}
		// Demand is what the ring would have held had it been big
		// enough: the records still pending plus the ones it dropped.
		if demand := st.Pending + int(delta); demand > worstDemand {
			worstDemand = demand
		}
	})

	if s.capacity > 0 && worstDemand > 0 && elapsed > 0 {
		// rate = worstDemand / elapsed; next = target records / rate.
		target := targetFill * float64(s.capacity)
		next := sim.Duration(target * float64(elapsed) / float64(worstDemand))
		obs.Next = min(max(next, s.minP), s.maxP)
	} else if s.capacity > 0 {
		// Nothing arrived: back off one planning step at a time rather
		// than jumping straight to the maximum, in case the workload is
		// bursty.
		obs.Next = min(s.interval*2, s.maxP)
	}
	s.interval = obs.Next
	return obs
}
