package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(30, func() { got = append(got, e.Now()) })
	e.At(10, func() { got = append(got, e.Now()) })
	e.At(20, func() { got = append(got, e.Now()) })
	e.Run(MaxTime)
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run(MaxTime)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine()
	var inner Time
	e.After(100, func() {
		e.After(50, func() { inner = e.Now() })
	})
	e.Run(MaxTime)
	if inner != 150 {
		t.Fatalf("nested After fired at %v, want 150", inner)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.At(10, func() { fired = true })
	e.Cancel(id)
	e.Run(MaxTime)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineRunUntilStopsClock(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(1000, func() { ran = true })
	end := e.Run(500)
	if ran {
		t.Fatal("event beyond horizon ran")
	}
	if end != 500 || e.Now() != 500 {
		t.Fatalf("Run(500) ended at %v (now %v)", end, e.Now())
	}
	e.Run(2000)
	if !ran {
		t.Fatal("event did not run after extending horizon")
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run(MaxTime)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Stream(1)
	s2 := r.Stream(2)
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("streams 1 and 2 produced identical first draw")
	}
	// Deriving the same stream twice gives the same sequence.
	r2 := NewRNG(7)
	t1 := r2.Stream(1)
	s1b := NewRNG(7).Stream(1)
	_ = t1
	a := NewRNG(7).Stream(5)
	b := NewRNG(7).Stream(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("re-derived stream diverged")
		}
	}
	if s1b == nil {
		t.Fatal("nil stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestDistributionsRespectBounds(t *testing.T) {
	r := NewRNG(5)
	dists := []Distribution{
		Constant{Value: 3 * Millisecond},
		Uniform{Min: Millisecond, Max: 2 * Millisecond},
		TruncNormal{Mean: 5 * Millisecond, Stddev: Millisecond, Min: 3 * Millisecond, Max: 8 * Millisecond},
		HeavyTail{Mu: math.Log(2e6), Sigma: 0.8, Min: Millisecond, Max: 60 * Millisecond},
	}
	for _, d := range dists {
		lo, hi := d.Bounds()
		for i := 0; i < 2000; i++ {
			v := d.Sample(r)
			if v < lo || v > hi {
				t.Fatalf("%T sample %v outside [%v, %v]", d, v, lo, hi)
			}
		}
	}
}

func TestDistributionSamplesNonNegativeProperty(t *testing.T) {
	// Property: whatever the (sanitized) parameters, samples are >= 0.
	f := func(seed uint64, mean, sd uint32) bool {
		r := NewRNG(seed)
		d := TruncNormal{
			Mean:   Duration(mean%100) * Millisecond,
			Stddev: Duration(sd%10) * Millisecond,
			Min:    0,
			Max:    200 * Millisecond,
		}
		for i := 0; i < 50; i++ {
			if d.Sample(r) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(1000)
	if tm.Add(500) != 1500 {
		t.Error("Add")
	}
	if Time(1500).Sub(tm) != 500 {
		t.Error("Sub")
	}
	if (2 * Millisecond).Milliseconds() != 2.0 {
		t.Error("Milliseconds")
	}
	if (3 * Second).Seconds() != 3.0 {
		t.Error("Seconds")
	}
}
