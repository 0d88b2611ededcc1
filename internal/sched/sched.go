// Package sched simulates a multi-core preemptive operating-system
// scheduler in virtual time.
//
// Threads (one per ROS2 node in this system, since the paper assumes
// single-threaded executors) run under fixed-priority preemptive scheduling
// with CPU affinities, like SCHED_FIFO on Linux. Every context switch fires
// an observer callback carrying the same fields the kernel publishes in the
// sched:sched_switch tracepoint — CPU, previous/next PID and priority, and
// the previous thread's state — which is exactly the input Algorithm 2 of
// the paper consumes to measure callback execution times.
//
// The machine also keeps independent ground-truth CPU accounting per
// thread, so experiments can verify that trace-based measurement recovers
// the designed execution times exactly.
package sched

import (
	"fmt"
	"math/bits"

	"github.com/tracesynth/rostracer/internal/sim"
)

// PID identifies a thread. PID 0 is the idle ("swapper") thread.
type PID uint32

// IdlePID is the PID reported in switch events when a CPU goes idle.
const IdlePID PID = 0

// ThreadState enumerates scheduler states.
type ThreadState int

// Thread states.
const (
	StateRunning  ThreadState = iota // on a CPU
	StateRunnable                    // waiting for a CPU
	StateBlocked                     // waiting for a wake-up
)

func (s ThreadState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateRunnable:
		return "runnable"
	default:
		return "blocked"
	}
}

// PrevState values reported in switch events, mirroring Linux: 0 means the
// previous thread was preempted while still runnable, 1 means it went to
// sleep.
const (
	PrevStateRunnable = 0
	PrevStateSleeping = 1
)

// DemandKind says what a thread wants next.
type DemandKind int

// Demand kinds.
const (
	// DemandCompute asks for Cost nanoseconds of CPU time.
	DemandCompute DemandKind = iota
	// DemandBlock puts the thread to sleep until Wake.
	DemandBlock
)

// Demand is a thread's next scheduling request.
type Demand struct {
	Kind DemandKind
	Cost sim.Duration
}

// Compute returns a compute demand of d nanoseconds.
func Compute(d sim.Duration) Demand { return Demand{Kind: DemandCompute, Cost: d} }

// Block returns a blocking demand.
func Block() Demand { return Demand{Kind: DemandBlock} }

// Proc is the behavior of a thread. Resume is invoked when the thread
// starts, when a compute demand completes, and when the thread is woken
// from a block; it returns the next demand. Resume runs atomically at one
// virtual instant while the thread holds a CPU, so it may publish messages,
// fire probes, and wake other threads.
type Proc interface {
	Resume(m *Machine) Demand
}

// ProcFunc adapts a function to Proc.
type ProcFunc func(m *Machine) Demand

// Resume implements Proc.
func (f ProcFunc) Resume(m *Machine) Demand { return f(m) }

// Wakeup describes one sched_wakeup occurrence.
type Wakeup struct {
	Time sim.Time
	PID  PID
	Prio int
}

// Switch describes one sched_switch occurrence.
type Switch struct {
	Time      sim.Time
	CPU       int
	PrevPID   PID
	PrevPrio  int
	PrevState int // PrevStateRunnable or PrevStateSleeping
	NextPID   PID
	NextPrio  int
}

// Thread is one schedulable entity.
type Thread struct {
	pid      PID
	prio     int    // larger = more urgent
	affinity uint64 // bit i set = may run on CPU i
	proc     Proc

	state       ThreadState
	cpu         int // valid when running (or just paused)
	remaining   sim.Duration
	sliceStart  sim.Time
	completion  sim.EventID
	completeFn  func() // m.complete(t), built once at spawn
	hasEvent    bool
	fifoSeq     uint64
	wakePending bool

	cpuTime sim.Duration // ground truth CPU time consumed
}

// PID returns the thread's identifier.
func (t *Thread) PID() PID { return t.pid }

// CPU returns the processor the thread is running on (or last ran on).
func (t *Thread) CPU() int { return t.cpu }

// CPUTime returns the ground-truth CPU time consumed so far.
func (t *Thread) CPUTime() sim.Duration { return t.cpuTime }

// Machine is the simulated multiprocessor.
type Machine struct {
	eng     *sim.Engine
	running []*Thread // per-CPU occupant; nil = idle
	all     uint64    // bit i set for every CPU i
	threads []*Thread // indexed by PID - firstPID
	seq     uint64

	// active is the run queue: every running or runnable thread, in
	// dispatch order (runsBefore). A thread's key only changes when it
	// enters the queue (Spawn, Wake from blocked) and it only leaves when
	// it blocks, so the queue stays sorted without re-sorting.
	active []*Thread
	// busy has bit i set while CPU i has an occupant.
	busy uint64
	// Scratch reused by every decision. deciding guards it: a wake that
	// arrives from a switch observer while a decision is being applied
	// sets again instead of re-entering, and the decision then runs once
	// more over the updated run queue.
	assigned []*Thread
	changes  []change
	deciding bool
	again    bool
	// scan, when set, replaces the run-queue decision. Only tests set it,
	// to drive the same machine with the scan-and-sort reference.
	scan func(*Machine)

	// OnSwitch, if set, observes every context switch; the kernel tracer
	// attaches here (via the ebpf tracepoint bridge).
	OnSwitch func(Switch)
	// OnWakeup, if set, observes blocked->runnable transitions, feeding
	// the sched_wakeup tracepoint (the waiting-time extension of the
	// paper's Sec. VII).
	OnWakeup func(Wakeup)

	switches uint64
}

// NewMachine creates a machine with numCPUs processors on engine eng.
func NewMachine(eng *sim.Engine, numCPUs int) *Machine {
	if numCPUs <= 0 || numCPUs > 64 {
		panic(fmt.Sprintf("sched: invalid CPU count %d", numCPUs))
	}
	return &Machine{
		eng:      eng,
		running:  make([]*Thread, numCPUs),
		assigned: make([]*Thread, numCPUs),
		all:      ^uint64(0) >> uint(64-numCPUs),
	}
}

// firstPID is the PID of the first spawned thread; PIDs are dense from
// there.
const firstPID PID = 1000

// Switches returns the total number of context switches so far.
func (m *Machine) Switches() uint64 { return m.switches }

// AffinityAll is an affinity mask allowing every CPU.
const AffinityAll uint64 = ^uint64(0)

// Spawn creates a thread. It becomes runnable immediately; scheduling
// happens when the engine runs.
func (m *Machine) Spawn(name string, prio int, affinity uint64, p Proc) *Thread {
	if affinity == 0 {
		affinity = AffinityAll
	}
	mask := affinity & m.all
	if mask == 0 {
		panic(fmt.Sprintf("sched: thread %q has empty effective affinity", name))
	}
	t := &Thread{
		pid: firstPID + PID(len(m.threads)), prio: prio, affinity: mask,
		proc: p, state: StateRunnable, fifoSeq: m.seq,
	}
	t.completeFn = func() { m.complete(t) }
	m.seq++
	m.threads = append(m.threads, t)
	m.enqueue(t)
	// Defer the initial dispatch to an engine event so that spawning
	// during setup (before Run) behaves identically to spawning mid-run.
	m.eng.After(0, m.reschedule)
	return t
}

// Lookup returns the thread with the given PID, or nil.
func (m *Machine) Lookup(pid PID) *Thread {
	if i := pid - firstPID; pid >= firstPID && int(i) < len(m.threads) {
		return m.threads[i]
	}
	return nil
}

// Threads returns all threads sorted by PID.
func (m *Machine) Threads() []*Thread { return append([]*Thread(nil), m.threads...) }

// Wake makes a blocked thread runnable. Waking a running or runnable
// thread records a pending wake so a concurrent block is absorbed, which
// mirrors the kernel's wake-up race handling.
func (m *Machine) Wake(pid PID) {
	t := m.Lookup(pid)
	if t == nil {
		return
	}
	switch t.state {
	case StateBlocked:
		t.state = StateRunnable
		t.fifoSeq = m.seq
		m.seq++
		m.enqueue(t)
		if m.OnWakeup != nil {
			m.OnWakeup(Wakeup{Time: m.eng.Now(), PID: t.pid, Prio: t.prio})
		}
		m.reschedule()
	default:
		t.wakePending = true
	}
}

// runsBefore is the dispatch order: higher priority first, then FIFO
// within a priority, then PID. It is total, so the run queue's order —
// and with it every scheduling decision — is fully determined.
func runsBefore(a, b *Thread) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if a.fifoSeq != b.fifoSeq {
		return a.fifoSeq < b.fifoSeq
	}
	return a.pid < b.pid
}

// queuePos returns the index of the first queued thread that t runs
// before (or that is t itself).
func (m *Machine) queuePos(t *Thread) int {
	lo, hi := 0, len(m.active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if runsBefore(m.active[mid], t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// enqueue adds a thread that just became runnable to the run queue.
func (m *Machine) enqueue(t *Thread) {
	i := m.queuePos(t)
	m.active = append(m.active, nil)
	copy(m.active[i+1:], m.active[i:])
	m.active[i] = t
}

// dequeue removes a thread that is leaving the running/runnable states.
func (m *Machine) dequeue(t *Thread) {
	if t.state != StateRunning && t.state != StateRunnable {
		return
	}
	i := m.queuePos(t)
	n := len(m.active) - 1
	copy(m.active[i:], m.active[i+1:])
	m.active[n] = nil
	m.active = m.active[:n]
}

// change records one CPU whose occupant a decision replaces.
type change struct {
	cpu                 int
	next                *Thread
	prevPID             PID
	prevPrio, prevState int
}

// reschedule computes the preferred assignment of runnable threads to CPUs
// and applies the difference. Changed CPUs are first paused, then refilled,
// so a migrating thread is never booked on two CPUs at once.
func (m *Machine) reschedule() {
	if m.deciding {
		m.again = true
		return
	}
	m.deciding = true
	defer func() { m.deciding = false }()
	for {
		m.again = false
		if m.scan != nil {
			m.scan(m)
		} else {
			m.decide()
		}
		if !m.again {
			return
		}
	}
}

// decide walks the run queue in dispatch order and gives each thread its
// own CPU if it is running and still free there, else the first idle
// allowed CPU, else the first free allowed CPU (taking it from a
// lower-priority occupant). A thread with no slot stays runnable.
func (m *Machine) decide() {
	// assigned[c] is meaningful only where taken has bit c set.
	assigned := m.assigned
	var taken uint64
	for _, t := range m.active {
		if taken == m.all {
			break
		}
		if t.state == StateRunning {
			if own := uint64(1) << uint(t.cpu); taken&own == 0 && t.affinity&own != 0 {
				assigned[t.cpu] = t
				taken |= own
				continue
			}
		}
		free := t.affinity &^ taken
		if free == 0 {
			continue
		}
		if idle := free &^ m.busy; idle != 0 {
			free = idle
		}
		c := bits.TrailingZeros64(free)
		assigned[c] = t
		taken |= uint64(1) << uint(c)
	}

	// Phase 1: pause every outgoing occupant.
	changes := m.changes[:0]
	for c, cur := range m.running {
		var next *Thread
		if taken&(uint64(1)<<uint(c)) != 0 {
			next = assigned[c]
		}
		if cur == next {
			continue
		}
		ch := change{cpu: c, next: next}
		if cur != nil {
			ch.prevPID, ch.prevPrio, ch.prevState = cur.pid, cur.prio, prevStateOf(cur)
			m.pause(c)
		}
		changes = append(changes, ch)
	}
	m.changes = changes
	// Phase 2: install incoming threads and emit one switch per CPU.
	for _, ch := range changes {
		next := ch.next
		m.install(ch.cpu, next)
		sw := Switch{
			Time:      m.eng.Now(),
			CPU:       ch.cpu,
			PrevPID:   ch.prevPID,
			PrevPrio:  ch.prevPrio,
			PrevState: ch.prevState,
		}
		if next != nil {
			sw.NextPID = next.pid
			sw.NextPrio = next.prio
		}
		m.switches++
		if m.OnSwitch != nil {
			m.OnSwitch(sw)
		}
	}
}

func prevStateOf(t *Thread) int {
	switch t.state {
	case StateBlocked:
		return PrevStateSleeping
	default:
		return PrevStateRunnable
	}
}

// pause halts the occupant of c, charging its CPU time and cancelling its
// completion event. A still-running occupant becomes runnable (preemption);
// a blocked occupant keeps its state.
func (m *Machine) pause(c int) {
	t := m.running[c]
	if t == nil {
		return
	}
	ran := m.eng.Now().Sub(t.sliceStart)
	t.cpuTime += ran
	t.remaining -= ran
	if t.remaining < 0 {
		t.remaining = 0
	}
	if t.hasEvent {
		m.eng.Cancel(t.completion)
		t.hasEvent = false
	}
	if t.state == StateRunning {
		t.state = StateRunnable
	}
	m.running[c] = nil
	m.busy &^= uint64(1) << uint(c)
}

// install puts t (possibly nil) on c and schedules its compute completion.
func (m *Machine) install(c int, t *Thread) {
	m.running[c] = t
	if t == nil {
		return
	}
	m.busy |= uint64(1) << uint(c)
	t.state = StateRunning
	t.cpu = c
	t.sliceStart = m.eng.Now()
	d := t.remaining
	if d < 0 {
		d = 0
	}
	t.completion = m.eng.After(d, t.completeFn)
	t.hasEvent = true
}

// complete handles a thread finishing its current compute demand: account
// the time, ask the Proc for the next demand, and act on it.
func (m *Machine) complete(t *Thread) {
	t.hasEvent = false
	now := m.eng.Now()
	t.cpuTime += now.Sub(t.sliceStart)
	t.remaining = 0
	t.sliceStart = now

	d := t.proc.Resume(m)
	switch d.Kind {
	case DemandCompute:
		if d.Cost < 0 {
			d.Cost = 0
		}
		t.remaining = d.Cost
		// The thread keeps its CPU; a thread continuing to run produces no
		// sched_switch, matching the kernel.
		t.completion = m.eng.After(d.Cost, t.completeFn)
		t.hasEvent = true
		m.reschedule()

	case DemandBlock:
		if t.wakePending {
			// Absorb the wake: never actually sleep; re-enter Resume at
			// the same instant via a zero-cost compute.
			t.wakePending = false
			t.remaining = 0
			t.completion = m.eng.After(0, t.completeFn)
			t.hasEvent = true
			return
		}
		m.dequeue(t)
		t.state = StateBlocked
		m.reschedule()
	}
}
