package sched

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// checkInvariants reports the first broken run-queue or CPU-booking
// invariant of m, or "". It holds between engine events: the run queue
// holds exactly the running and runnable threads, in dispatch order, and
// every CPU's occupant is a running thread booked on that CPU alone.
func checkInvariants(m *Machine) string {
	queued := map[*Thread]bool{}
	for i, t := range m.active {
		if queued[t] {
			return fmt.Sprintf("pid %d queued twice", t.pid)
		}
		queued[t] = true
		if i > 0 && !runsBefore(m.active[i-1], t) {
			return fmt.Sprintf("run queue out of order at %d: pid %d before pid %d", i, m.active[i-1].pid, t.pid)
		}
	}
	for _, t := range m.threads {
		active := t.state == StateRunning || t.state == StateRunnable
		if active != queued[t] {
			return fmt.Sprintf("pid %d in state %v: queued=%v", t.pid, t.state, queued[t])
		}
		if t.state == StateRunning && m.running[t.cpu] != t {
			return fmt.Sprintf("running pid %d not on its cpu %d", t.pid, t.cpu)
		}
	}
	for c, t := range m.running {
		if busy := m.busy&(uint64(1)<<uint(c)) != 0; busy != (t != nil) {
			return fmt.Sprintf("cpu %d busy bit %v with occupant %v", c, busy, t != nil)
		}
		if t != nil && (t.state != StateRunning || t.cpu != c) {
			return fmt.Sprintf("cpu %d occupant pid %d is %v on cpu %d", c, t.pid, t.state, t.cpu)
		}
	}
	return ""
}

// randWorld drives one machine with a seeded random workload: threads of
// mixed priorities and affinities that compute (zero-cost included),
// block, wake each other from inside Resume and spawn new threads,
// plus a periodic tick that wakes random PIDs (unknown ones included) and
// spawns at random instants. Every random draw comes from one stream in
// event order, so two machines that take the same decisions see the same
// workload.
type randWorld struct {
	eng      *sim.Engine
	m        *Machine
	rng      *sim.RNG
	cpus     int
	switches []Switch
	wakeups  []Wakeup
	broken   string
}

const randMaxThreads = 40

func newRandWorld(seed uint64, cpus int, reference bool) *randWorld {
	w := &randWorld{eng: sim.NewEngine(), rng: sim.NewRNG(seed), cpus: cpus}
	w.m = NewMachine(w.eng, cpus)
	if reference {
		w.m.scan = scanReschedule
	}
	w.m.OnSwitch = func(s Switch) { w.switches = append(w.switches, s) }
	w.m.OnWakeup = func(u Wakeup) { w.wakeups = append(w.wakeups, u) }
	for i := 0; i < 3+w.rng.Intn(2*cpus+4); i++ {
		w.spawn()
	}
	w.eng.After(0, w.tick)
	return w
}

func (w *randWorld) randPID() PID {
	return firstPID + PID(w.rng.Intn(len(w.m.threads)+1))
}

func (w *randWorld) compute() Demand {
	return Compute(sim.Duration(w.rng.Intn(300)) * sim.Microsecond)
}

func (w *randWorld) spawn() {
	if len(w.m.threads) >= randMaxThreads {
		return
	}
	r := w.rng
	var aff uint64
	switch r.Intn(4) {
	case 0:
		aff = AffinityAll
	case 1:
		aff = uint64(1) << r.Intn(w.cpus)
	case 2:
		aff = r.Uint64() | uint64(1)<<r.Intn(w.cpus)
	}
	w.m.Spawn(fmt.Sprintf("t%d", len(w.m.threads)), r.Intn(5), aff, ProcFunc(func(m *Machine) Demand {
		switch x := r.Intn(100); {
		case x < 40:
			return w.compute()
		case x < 50:
			m.Wake(w.randPID())
			return w.compute()
		case x < 53:
			w.spawn()
			return w.compute()
		default:
			return Block()
		}
	}))
}

func (w *randWorld) tick() {
	if s := checkInvariants(w.m); s != "" && w.broken == "" {
		w.broken = fmt.Sprintf("t=%v: %s", w.eng.Now(), s)
	}
	for n := w.rng.Intn(4); n > 0; n-- {
		w.m.Wake(w.randPID())
	}
	if w.rng.Intn(10) == 0 {
		w.spawn()
	}
	w.eng.After(sim.Duration(w.rng.Intn(400))*sim.Microsecond, w.tick)
}

// TestRunQueueMatchesScanReference drives the run queue and the
// scan-and-sort reference with identical seeded random workloads and
// requires identical switch and wakeup streams and ground-truth CPU time.
func TestRunQueueMatchesScanReference(t *testing.T) {
	for _, cpus := range []int{1, 2, 12, 64} {
		for seed := uint64(1); seed <= 25; seed++ {
			t.Run(fmt.Sprintf("cpus=%d/seed=%d", cpus, seed), func(t *testing.T) {
				got := newRandWorld(seed, cpus, false)
				want := newRandWorld(seed, cpus, true)
				const horizon = sim.Time(30 * sim.Millisecond)
				got.eng.Run(horizon)
				want.eng.Run(horizon)
				for _, w := range []*randWorld{got, want} {
					if w.broken != "" {
						t.Fatalf("invariant broken (reference=%v): %s", w.m.scan != nil, w.broken)
					}
				}
				if len(want.switches) < 20 {
					t.Fatalf("workload too quiet: %d switches", len(want.switches))
				}
				compareMachines(t, got.m, want.m, got.switches, want.switches, got.wakeups, want.wakeups)
			})
		}
	}
}

// compareMachines fails t unless the two machines produced the same
// switch and wakeup streams and the same per-thread outcome.
func compareMachines(t *testing.T, got, want *Machine, gotSw, wantSw []Switch, gotWu, wantWu []Wakeup) {
	t.Helper()
	for i := 0; i < len(gotSw) && i < len(wantSw); i++ {
		if gotSw[i] != wantSw[i] {
			t.Fatalf("switch %d differs:\n got  %+v\n want %+v", i, gotSw[i], wantSw[i])
		}
	}
	if len(gotSw) != len(wantSw) {
		t.Fatalf("%d switches, reference %d", len(gotSw), len(wantSw))
	}
	if !reflect.DeepEqual(gotWu, wantWu) {
		t.Fatalf("wakeup streams differ (%d vs %d wakeups)", len(gotWu), len(wantWu))
	}
	if got.Switches() != want.Switches() || len(got.threads) != len(want.threads) {
		t.Fatalf("%d switches / %d threads, reference %d / %d",
			got.Switches(), len(got.threads), want.Switches(), len(want.threads))
	}
	for i, g := range got.threads {
		w := want.threads[i]
		if g.CPUTime() != w.CPUTime() || g.State() != w.State() {
			t.Fatalf("pid %d: cpu time %v state %v, reference %v %v",
				g.pid, g.CPUTime(), g.State(), w.CPUTime(), w.State())
		}
	}
}

// TestRescheduleReentryFromObserver pins the re-entry rule: a switch
// observer that wakes a thread while a decision is being applied does not
// re-enter it; the decision runs once more at the same instant and the
// woken thread is dispatched there.
func TestRescheduleReentryFromObserver(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMachine(eng, 1)
	high := m.Spawn("high", 9, AffinityAll, &scriptProc{demands: []Demand{Block(), Compute(sim.Millisecond)}})
	low := m.Spawn("low", 1, AffinityAll, &scriptProc{demands: []Demand{Compute(10 * sim.Millisecond)}})
	var sws []Switch
	woke := false
	m.OnSwitch = func(s Switch) {
		sws = append(sws, s)
		if s.NextPID == low.PID() && !woke {
			woke = true
			m.Wake(high.PID())
		}
	}
	end := eng.Run(sim.MaxTime)

	want := []Switch{
		{Time: 0, CPU: 0, PrevPID: IdlePID, NextPID: high.PID(), NextPrio: 9},
		{Time: 0, CPU: 0, PrevPID: high.PID(), PrevPrio: 9, PrevState: PrevStateSleeping, NextPID: low.PID(), NextPrio: 1},
		{Time: 0, CPU: 0, PrevPID: low.PID(), PrevPrio: 1, PrevState: PrevStateRunnable, NextPID: high.PID(), NextPrio: 9},
		{Time: sim.Time(sim.Millisecond), CPU: 0, PrevPID: high.PID(), PrevPrio: 9, PrevState: PrevStateSleeping, NextPID: low.PID(), NextPrio: 1},
		{Time: sim.Time(11 * sim.Millisecond), CPU: 0, PrevPID: low.PID(), PrevPrio: 1, PrevState: PrevStateSleeping, NextPID: IdlePID},
	}
	if !reflect.DeepEqual(sws, want) {
		t.Fatalf("switches:\n got  %+v\n want %+v", sws, want)
	}
	if end != sim.Time(11*sim.Millisecond) || high.CPUTime() != sim.Millisecond || low.CPUTime() != 10*sim.Millisecond {
		t.Fatalf("end %v, cpu time high %v low %v", end, high.CPUTime(), low.CPUTime())
	}
	if msg := checkInvariants(m); msg != "" {
		t.Fatal(msg)
	}
}
