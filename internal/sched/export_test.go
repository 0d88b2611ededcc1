package sched

// UseScanReference makes m take every scheduling decision with the
// scan-and-sort reference instead of the run queue.
func UseScanReference(m *Machine) { m.scan = scanReschedule }

// CheckInvariants reports the first broken run-queue or CPU-booking
// invariant of m, or "".
func CheckInvariants(m *Machine) string { return checkInvariants(m) }

// State returns t's current scheduler state.
func (t *Thread) State() ThreadState { return t.state }
