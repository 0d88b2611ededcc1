package tracers

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// schedulerWorld boots a traced AVP world on a bounded bundle.
func schedulerWorld(t *testing.T, capacity int) (*rclcpp.World, *Bundle) {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 11})
	b, err := NewBundleCapacity(w.Runtime(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	BridgeSched(w.Machine(), w.Runtime())
	if err := b.StartRT(); err != nil {
		t.Fatal(err)
	}
	if err := b.StartKernel(true); err != nil {
		t.Fatal(err)
	}
	apps.BuildAVP(w, apps.AVPConfig{})
	return w, b
}

// TestDrainSchedulerTightensUnderLoad checks the planner's core motion:
// a busy window plans a shorter period than an idle one, clamped to the
// policy bounds.
func TestDrainSchedulerTightensUnderLoad(t *testing.T) {
	w, b := schedulerWorld(t, 64)
	minP, maxP := 10*sim.Millisecond, 2*sim.Second
	s := NewDrainScheduler(b, minP, maxP)
	if s.Interval() != minP {
		t.Fatalf("initial interval %v, want calibration at the minimum %v", s.Interval(), minP)
	}

	// Busy window: run long enough that rings accumulate real backlog.
	w.Run(200 * sim.Millisecond)
	obs := s.Observe(200 * sim.Millisecond)
	if obs.MaxPending == 0 && obs.LostDelta == 0 {
		t.Fatal("busy window observed no traffic; workload broken")
	}
	busy := obs.Next
	if busy < minP || busy > maxP {
		t.Fatalf("planned interval %v outside [%v, %v]", busy, minP, maxP)
	}
	if busy == maxP {
		t.Fatalf("busy window planned the maximum (%v); no adaptation happened", busy)
	}
	var kc trace.KindCounter
	if err := b.StreamTo(&kc); err != nil {
		t.Fatal(err)
	}

	// Idle window: no simulation progress, nothing arrives; the planner
	// backs off (doubling toward the maximum), never below the busy plan.
	idle := s.Observe(busy)
	if idle.Next <= busy {
		t.Fatalf("idle window planned %v, want backoff above %v", idle.Next, busy)
	}
}

// TestDrainSchedulerUnboundedStaysAtMax checks that unbounded rings
// disable adaptation: there is no capacity to protect, so the scheduler
// always plans the maximum period.
func TestDrainSchedulerUnboundedStaysAtMax(t *testing.T) {
	w, b := schedulerWorld(t, 0)
	minP, maxP := 10*sim.Millisecond, sim.Second
	s := NewDrainScheduler(b, minP, maxP)
	if s.Interval() != maxP {
		t.Fatalf("unbounded initial interval %v, want the maximum %v", s.Interval(), maxP)
	}
	w.Run(500 * sim.Millisecond)
	if obs := s.Observe(500 * sim.Millisecond); obs.Next != maxP {
		t.Fatalf("unbounded planned %v, want the maximum %v", obs.Next, maxP)
	}
}

// TestDrainSchedulerZeroLossAtLossyPoint is the end-to-end property the
// adaptive policy exists for: at a bounded-ring operating point where a
// fixed period demonstrably overruns, the scheduler-driven loop loses
// nothing and drains the identical event stream.
func TestDrainSchedulerZeroLossAtLossyPoint(t *testing.T) {
	const capacity = 256
	duration := 4 * sim.Second
	fixedPeriod := duration / 8

	// The lossy operating point needs the full SYN+AVP workload over
	// enough CPUs that one ring runs hot (the capacity sweep's setup).
	lossyWorld := func() (*rclcpp.World, *Bundle) {
		w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 8, Seed: 9})
		b, err := NewBundleCapacity(w.Runtime(), capacity)
		if err != nil {
			t.Fatal(err)
		}
		BridgeSched(w.Machine(), w.Runtime())
		if err := b.StartInit(); err != nil {
			t.Fatal(err)
		}
		if err := b.StartRT(); err != nil {
			t.Fatal(err)
		}
		if err := b.StartKernel(true); err != nil {
			t.Fatal(err)
		}
		apps.BuildSYN(w, apps.SYNConfig{})
		apps.BuildAVP(w, apps.AVPConfig{})
		b.StopInit()
		return w, b
	}

	run := func(adaptive bool) (events int, lost uint64) {
		w, b := lossyWorld()
		var kc trace.KindCounter
		if adaptive {
			s := NewDrainScheduler(b, duration/128, fixedPeriod)
			var elapsed sim.Duration
			for elapsed < duration {
				step := s.Interval()
				if rest := duration - elapsed; step > rest {
					step = rest
				}
				w.Run(step)
				elapsed += step
				s.Observe(step)
				if err := b.StreamTo(&kc); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for elapsed := sim.Duration(0); elapsed < duration; elapsed += fixedPeriod {
				w.Run(fixedPeriod)
				if err := b.StreamTo(&kc); err != nil {
					t.Fatal(err)
				}
			}
		}
		return kc.Total(), b.Lost()
	}

	fixedEvents, fixedLost := run(false)
	adEvents, adLost := run(true)
	if fixedLost == 0 {
		t.Skip("fixed period lost nothing at this scale; operating point not lossy")
	}
	if adLost != 0 {
		t.Fatalf("adaptive drain lost %d records", adLost)
	}
	if adEvents != fixedEvents+int(fixedLost) {
		t.Fatalf("adaptive drained %d events, want %d", adEvents, fixedEvents+int(fixedLost))
	}
}

// TestObserveMatchesBundleGauges drains a bounded, overrunning bundle at
// a fixed cadence and checks, window by window, that the scheduler's one
// walk over the rings reads what the bundle's own gauges read just
// before it: the worst ring's backlog and CPU, and the growth of the
// lost total. A fixed cadence keeps planning its one period.
func TestObserveMatchesBundleGauges(t *testing.T) {
	w, b := schedulerWorld(t, 64)
	period := 250 * sim.Millisecond
	s := NewDrainScheduler(b, period, period)
	var prevLost, overruns uint64
	for i := 0; i < 20; i++ {
		w.Run(period)
		pending, cpu := b.MaxRingPending()
		lost := b.Lost()
		obs := s.Observe(period)
		if obs.MaxPending != pending || obs.MaxPendingCPU != cpu || obs.LostDelta != lost-prevLost {
			t.Fatalf("window %d: observed pending %d on cpu%d, lost +%d; bundle reads %d on cpu%d, lost +%d",
				i, obs.MaxPending, obs.MaxPendingCPU, obs.LostDelta, pending, cpu, lost-prevLost)
		}
		if obs.Next != period {
			t.Fatalf("window %d: fixed cadence planned %v, want %v", i, obs.Next, period)
		}
		overruns += obs.LostDelta
		prevLost = lost
		var kc trace.KindCounter
		if err := b.StreamTo(&kc); err != nil {
			t.Fatal(err)
		}
	}
	if overruns == 0 {
		t.Fatal("no ring overran; the bounded operating point is not lossy")
	}
}

// TestMaxRingPending checks the gauge the scheduler plans from reports
// the worst single ring, not a sum.
func TestMaxRingPending(t *testing.T) {
	w, b := schedulerWorld(t, 0)
	w.Run(100 * sim.Millisecond)
	pending, _ := b.MaxRingPending()
	if pending == 0 {
		t.Fatal("no pending records after a traced window")
	}
	total := 0
	for _, pb := range b.perfBuffers() {
		total += totals(pb).Pending
	}
	if pending > total {
		t.Fatalf("worst ring pending %d exceeds total %d", pending, total)
	}
}
