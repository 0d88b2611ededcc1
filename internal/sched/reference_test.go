package sched

import "sort"

// scanReschedule is the scheduler's original decision, kept as the oracle
// the run queue is tested against. On every call it scans the whole
// thread table for running and runnable threads, sorts them by (priority
// desc, FIFO asc, PID asc), places them, and applies the difference with
// freshly allocated buffers. It shares nothing with decide beyond pause,
// install and the thread states.
func scanReschedule(m *Machine) {
	// Candidates: running + runnable threads, by (priority desc, FIFO asc).
	var cands []*Thread
	for _, t := range m.threads {
		if t.state == StateRunning || t.state == StateRunnable {
			cands = append(cands, t)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].prio != cands[j].prio {
			return cands[i].prio > cands[j].prio
		}
		if cands[i].fifoSeq != cands[j].fifoSeq {
			return cands[i].fifoSeq < cands[j].fifoSeq
		}
		return cands[i].pid < cands[j].pid
	})

	n := len(m.running)
	assigned := make([]*Thread, n)
	taken := make([]bool, n)
	place := func(t *Thread, c int) {
		assigned[c] = t
		taken[c] = true
	}
	allowed := func(t *Thread, c int) bool { return t.affinity&(1<<uint(c)) != 0 }
	for _, t := range cands {
		// Prefer the CPU the thread already occupies, then an idle CPU,
		// then any free slot (taking it from a lower-priority occupant).
		if t.state == StateRunning && !taken[t.cpu] && allowed(t, t.cpu) {
			place(t, t.cpu)
			continue
		}
		idle, free := -1, -1
		for c := 0; c < n; c++ {
			if taken[c] || !allowed(t, c) {
				continue
			}
			if m.running[c] == nil && idle < 0 {
				idle = c
			}
			if free < 0 {
				free = c
			}
		}
		switch {
		case idle >= 0:
			place(t, idle)
		case free >= 0:
			place(t, free)
		}
		// No slot: the thread stays runnable.
	}

	// Phase 1: pause every outgoing occupant.
	type change struct {
		c        int
		prevInfo [3]uint64 // pid, prio, state
	}
	var changes []change
	for c := 0; c < n; c++ {
		if m.running[c] == assigned[c] {
			continue
		}
		ch := change{c: c}
		if p := m.running[c]; p != nil {
			ch.prevInfo = [3]uint64{uint64(p.pid), uint64(p.prio), uint64(prevStateOf(p))}
			m.pause(c)
		}
		changes = append(changes, ch)
	}
	// Phase 2: install incoming threads and emit one switch per CPU.
	for _, ch := range changes {
		next := assigned[ch.c]
		m.install(ch.c, next)
		sw := Switch{
			Time:      m.eng.Now(),
			CPU:       ch.c,
			PrevPID:   PID(ch.prevInfo[0]),
			PrevPrio:  int(ch.prevInfo[1]),
			PrevState: int(ch.prevInfo[2]),
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
