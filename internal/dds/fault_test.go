package dds

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/umem"
)

// scriptFault replays a fixed fate schedule, one entry per delivery.
type scriptFault struct {
	fates []struct {
		drop  bool
		dups  int
		extra sim.Duration
	}
	i int
}

func (s *scriptFault) Fate(*sim.RNG) (bool, int, sim.Duration) {
	f := s.fates[s.i%len(s.fates)]
	s.i++
	return f.drop, f.dups, f.extra
}

func TestTransportFaultDropDuplicateDelay(t *testing.T) {
	eng, d := newTestDomain()
	fault := &scriptFault{fates: []struct {
		drop  bool
		dups  int
		extra sim.Duration
	}{
		{drop: true},                  // write 1: suppressed
		{dups: 2},                     // write 2: three copies
		{extra: 10 * sim.Millisecond}, // write 3: late
		{},                            // write 4: untouched
	}}
	d.Fault = fault

	space := umem.NewSpace(1)
	w := d.CreateWriter(1, space, "/x")
	var arrivals []sim.Time
	d.CreateReader("/x", func(s *Sample) { arrivals = append(arrivals, eng.Now()) })

	for i := 0; i < 4; i++ {
		w.Write(nil, 0, 0)
	}
	eng.Run(sim.MaxTime)

	// 0 (dropped) + 3 (duplicated) + 1 (delayed) + 1 = 5 deliveries.
	if len(arrivals) != 5 {
		t.Fatalf("deliveries = %d, want 5", len(arrivals))
	}
	// The delayed copy carries at least the extra latency on top of the
	// base transport delay.
	var late int
	for _, at := range arrivals {
		if at >= sim.Time(10*sim.Millisecond) {
			late++
		}
	}
	if late != 1 {
		t.Fatalf("late deliveries = %d, want exactly the delayed one (arrivals %v)", late, arrivals)
	}
	st := d.FaultStats()
	if st.Dropped != 1 || st.Duplicated != 2 || st.Delayed != 1 {
		t.Fatalf("fault stats = %+v, want 1 dropped / 2 duplicated / 1 delayed", st)
	}
}

func TestTransportFaultNilIsPassThrough(t *testing.T) {
	eng, d := newTestDomain()
	space := umem.NewSpace(1)
	w := d.CreateWriter(1, space, "/x")
	got := 0
	d.CreateReader("/x", func(*Sample) { got++ })
	w.Write(nil, 0, 0)
	eng.Run(sim.MaxTime)
	if got != 1 {
		t.Fatalf("deliveries = %d, want 1", got)
	}
	if st := d.FaultStats(); st != (TransportFaultStats{}) {
		t.Fatalf("stats without a fault: %+v", st)
	}
}

func TestTransportFaultDeterministicPerSeed(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		eng, d := newTestDomain() // seed fixed inside
		d.Fault = probFault{}
		space := umem.NewSpace(1)
		w := d.CreateWriter(1, space, "/x")
		d.CreateReader("/x", func(*Sample) {})
		for i := 0; i < 200; i++ {
			w.Write(nil, 0, 0)
		}
		eng.Run(sim.MaxTime)
		st := d.FaultStats()
		return st.Dropped, st.Duplicated, st.Delayed
	}
	d1, u1, l1 := run()
	d2, u2, l2 := run()
	if d1 != d2 || u1 != u2 || l1 != l2 {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", d1, u1, l1, d2, u2, l2)
	}
	if d1 == 0 || u1 == 0 || l1 == 0 {
		t.Fatalf("probabilistic fault idle over 200 writes: (%d,%d,%d)", d1, u1, l1)
	}
}

// probFault draws every fate from the domain's RNG, exercising the
// seeded-determinism contract.
type probFault struct{}

func (probFault) Fate(rng *sim.RNG) (bool, int, sim.Duration) {
	switch {
	case rng.Float64() < 0.1:
		return true, 0, 0
	case rng.Float64() < 0.1:
		return false, 1, 0
	case rng.Float64() < 0.1:
		return false, 0, sim.Millisecond
	}
	return false, 0, 0
}
