package sched

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// scriptProc replays a fixed list of demands, then blocks for good.
type scriptProc struct {
	demands []Demand
	i       int
	resumes int
}

func (p *scriptProc) Resume(*Machine) Demand {
	p.resumes++
	if p.i >= len(p.demands) {
		return Block()
	}
	d := p.demands[p.i]
	p.i++
	return d
}

func collectSwitches(m *Machine) *[]Switch {
	var out []Switch
	m.OnSwitch = func(s Switch) { out = append(out, s) }
	return &out
}

func TestSingleThreadComputeThenBlock(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 1)
	sws := collectSwitches(m)
	p := &scriptProc{demands: []Demand{Compute(100 * sim.Microsecond)}}
	th := m.Spawn("worker", 10, AffinityAll, p)
	eng.Run(sim.MaxTime)

	if th.State() != StateBlocked {
		t.Fatalf("state = %v", th.State())
	}
	if th.CPUTime() != 100*sim.Microsecond {
		t.Fatalf("cpu time = %v", th.CPUTime())
	}
	// Expect: idle->worker, worker->idle(sleeping).
	if len(*sws) != 2 {
		t.Fatalf("switches = %d: %+v", len(*sws), *sws)
	}
	if (*sws)[0].NextPID != th.PID() || (*sws)[0].PrevPID != IdlePID {
		t.Errorf("first switch %+v", (*sws)[0])
	}
	last := (*sws)[1]
	if last.PrevPID != th.PID() || last.PrevState != PrevStateSleeping || last.NextPID != IdlePID {
		t.Errorf("last switch %+v", last)
	}
}

func TestPriorityPreemption(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 1)
	sws := collectSwitches(m)

	low := m.Spawn("low", 1, AffinityAll, &scriptProc{demands: []Demand{Compute(10 * sim.Millisecond)}})
	var high *Thread
	// Spawn the high-priority thread at t=2ms.
	eng.At(sim.Time(2*sim.Millisecond), func() {
		high = m.Spawn("high", 5, AffinityAll, &scriptProc{demands: []Demand{Compute(3 * sim.Millisecond)}})
	})
	eng.Run(sim.MaxTime)

	if low.CPUTime() != 10*sim.Millisecond {
		t.Errorf("low cpu time = %v", low.CPUTime())
	}
	if high.CPUTime() != 3*sim.Millisecond {
		t.Errorf("high cpu time = %v", high.CPUTime())
	}
	// low must finish at 2+3+8 = 13ms.
	var lowDone sim.Time
	for _, s := range *sws {
		if s.PrevPID == low.PID() && s.PrevState == PrevStateSleeping {
			lowDone = s.Time
		}
	}
	if lowDone != sim.Time(13*sim.Millisecond) {
		t.Errorf("low finished at %v, want 13ms", lowDone)
	}
	// A preemption switch with PrevState runnable must exist.
	foundPreempt := false
	for _, s := range *sws {
		if s.PrevPID == low.PID() && s.NextPID == high.PID() && s.PrevState == PrevStateRunnable {
			foundPreempt = true
		}
	}
	if !foundPreempt {
		t.Errorf("no preemption switch found in %+v", *sws)
	}
}

func TestTwoCPUsRunInParallel(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 2)
	a := m.Spawn("a", 1, AffinityAll, &scriptProc{demands: []Demand{Compute(5 * sim.Millisecond)}})
	b := m.Spawn("b", 1, AffinityAll, &scriptProc{demands: []Demand{Compute(5 * sim.Millisecond)}})
	end := eng.Run(sim.MaxTime)
	if a.State() != StateBlocked || b.State() != StateBlocked {
		t.Fatal("threads did not finish")
	}
	if end != sim.Time(5*sim.Millisecond) {
		t.Fatalf("finished at %v, want 5ms (parallel)", end)
	}
}

func TestAffinityPinsThread(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 2)
	sws := collectSwitches(m)
	a := m.Spawn("pinned0", 1, 1, &scriptProc{demands: []Demand{Compute(4 * sim.Millisecond)}})
	b := m.Spawn("pinned0too", 1, 1, &scriptProc{demands: []Demand{Compute(4 * sim.Millisecond)}})
	end := eng.Run(sim.MaxTime)
	// Serialized on CPU0 despite CPU1 being idle.
	if end != sim.Time(8*sim.Millisecond) {
		t.Fatalf("finished at %v, want 8ms (serialized)", end)
	}
	for _, s := range *sws {
		if s.CPU != 0 && (s.PrevPID == a.PID() || s.NextPID == a.PID() || s.PrevPID == b.PID() || s.NextPID == b.PID()) {
			t.Fatalf("pinned thread appeared on CPU %d", s.CPU)
		}
	}
}

func TestFIFOWithinPriority(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 1)
	sws := collectSwitches(m)
	first := m.Spawn("first", 3, AffinityAll, &scriptProc{demands: []Demand{Compute(sim.Millisecond)}})
	second := m.Spawn("second", 3, AffinityAll, &scriptProc{demands: []Demand{Compute(sim.Millisecond)}})
	eng.Run(sim.MaxTime)
	var order []PID
	for _, s := range *sws {
		if s.NextPID != IdlePID {
			order = append(order, s.NextPID)
		}
	}
	if len(order) != 2 || order[0] != first.PID() || order[1] != second.PID() {
		t.Fatalf("dispatch order %v, want [%d %d]", order, first.PID(), second.PID())
	}
}

// blockingProc computes, blocks, computes again after wake, blocks for
// good.
type blockingProc struct{ phase int }

func (p *blockingProc) Resume(*Machine) Demand {
	p.phase++
	switch p.phase {
	case 1:
		return Compute(sim.Millisecond)
	case 2:
		return Block()
	case 3:
		return Compute(2 * sim.Millisecond)
	default:
		return Block()
	}
}

func TestBlockAndWake(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 1)
	sws := collectSwitches(m)
	p := &blockingProc{}
	th := m.Spawn("blocky", 1, AffinityAll, p)
	eng.At(sim.Time(10*sim.Millisecond), func() { m.Wake(th.PID()) })
	end := eng.Run(sim.MaxTime)

	if th.CPUTime() != 3*sim.Millisecond {
		t.Errorf("cpu time = %v, want 3ms", th.CPUTime())
	}
	if end != sim.Time(12*sim.Millisecond) {
		t.Errorf("end = %v, want 12ms", end)
	}
	var sleeps []sim.Time
	for _, s := range *sws {
		if s.PrevPID == th.PID() && s.PrevState == PrevStateSleeping {
			sleeps = append(sleeps, s.Time)
		}
	}
	if len(sleeps) != 2 || sleeps[0] != sim.Time(sim.Millisecond) || sleeps[1] != end {
		t.Errorf("slept at %v, want [1ms %v]", sleeps, end)
	}
}

func TestWakeWhileRunningIsAbsorbed(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 1)
	p := &blockingProc{}
	th := m.Spawn("racy", 1, AffinityAll, p)
	// Wake arrives mid-compute, before the block in phase 2.
	eng.At(sim.Time(500*sim.Microsecond), func() { m.Wake(th.PID()) })
	end := eng.Run(sim.MaxTime)
	if p.phase != 4 {
		t.Fatalf("thread stuck in phase %d: absorbed wake lost", p.phase)
	}
	if end != sim.Time(3*sim.Millisecond) {
		t.Errorf("end = %v, want 3ms (no sleeping)", end)
	}
}

func TestWakeOnBlockedAndUnknown(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 1)
	p := &scriptProc{demands: []Demand{Compute(sim.Millisecond)}}
	th := m.Spawn("x", 1, AffinityAll, p)
	eng.Run(sim.MaxTime)
	m.Wake(th.PID()) // blocked: resumes once, then blocks again
	m.Wake(99999)    // unknown: no-op
	eng.Run(sim.MaxTime)
	if p.resumes != 3 || th.State() != StateBlocked {
		t.Fatalf("resumes = %d, state %v; want 3, blocked", p.resumes, th.State())
	}
}

func TestGroundTruthMatchesSegments(t *testing.T) {
	// Sum of [switch-in, switch-out) segments for a thread equals its
	// ground-truth CPU time — the invariant Algorithm 2 depends on.
	eng := sim.NewEngine()
	m := NewMachine(eng, 1)
	sws := collectSwitches(m)

	victim := m.Spawn("victim", 1, AffinityAll, &scriptProc{demands: []Demand{Compute(20 * sim.Millisecond)}})
	// Three interfering bursts.
	for i := 1; i <= 3; i++ {
		at := sim.Time(i * 4 * int(sim.Millisecond))
		eng.At(at, func() {
			m.Spawn("intruder", 9, AffinityAll, &scriptProc{demands: []Demand{Compute(sim.Millisecond)}})
		})
	}
	eng.Run(sim.MaxTime)

	var total sim.Duration
	var inAt sim.Time
	running := false
	for _, s := range *sws {
		if s.NextPID == victim.PID() {
			inAt = s.Time
			running = true
		}
		if s.PrevPID == victim.PID() && running {
			total += s.Time.Sub(inAt)
			running = false
		}
	}
	if total != victim.CPUTime() {
		t.Fatalf("segment sum %v != ground truth %v", total, victim.CPUTime())
	}
	if victim.CPUTime() != 20*sim.Millisecond {
		t.Fatalf("ground truth %v, want 20ms", victim.CPUTime())
	}
}

func TestZeroCostCompute(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 1)
	p := &scriptProc{demands: []Demand{Compute(0), Compute(0), Compute(sim.Millisecond)}}
	th := m.Spawn("zero", 1, AffinityAll, p)
	eng.Run(sim.MaxTime)
	if th.CPUTime() != sim.Millisecond {
		t.Fatalf("cpu time = %v", th.CPUTime())
	}
	if p.resumes != 4 {
		t.Fatalf("resumes = %d, want 4", p.resumes)
	}
}

func TestMigrationPrefersIdleCPU(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 2)
	low := m.Spawn("low", 1, AffinityAll, &scriptProc{demands: []Demand{Compute(10 * sim.Millisecond)}})
	var high *Thread
	eng.At(sim.Time(sim.Millisecond), func() {
		high = m.Spawn("high", 5, AffinityAll, &scriptProc{demands: []Demand{Compute(sim.Millisecond)}})
	})
	end := eng.Run(sim.MaxTime)
	// With two CPUs the high-priority arrival must not preempt low: both
	// run in parallel and low finishes at 10ms.
	if end != sim.Time(10*sim.Millisecond) {
		t.Fatalf("end = %v, want 10ms", end)
	}
	if low.CPUTime() != 10*sim.Millisecond || high.CPUTime() != sim.Millisecond {
		t.Fatalf("cpu times low=%v high=%v", low.CPUTime(), high.CPUTime())
	}
}

func TestSpawnPanicsOnEmptyAffinity(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty affinity")
		}
	}()
	m.Spawn("bad", 1, 1<<5, &scriptProc{})
}
