package pipeline

import (
	"reflect"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

func buildSYN(w *rclcpp.World) { apps.BuildSYN(w, apps.SYNConfig{}) }

// drainInstants runs cfg and returns the virtual time of every drain.
func drainInstants(t *testing.T, cfg Config) []sim.Duration {
	t.Helper()
	cfg.Seed, cfg.CPUs, cfg.Build = 1, 2, buildSYN
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var at []sim.Duration
	if _, err := s.Run(func(win Window) bool {
		at = append(at, win.Elapsed)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return at
}

func TestDrainInstants(t *testing.T) {
	d := sim.Second + 1
	for _, tc := range []struct {
		name string
		cfg  Config
		want []sim.Duration
	}{
		{"drains", Config{Duration: d, Drains: 3},
			[]sim.Duration{d / 3, 2 * d / 3, d}},
		{"period", Config{Duration: d, Period: 400 * sim.Millisecond},
			[]sim.Duration{400 * sim.Millisecond, 800 * sim.Millisecond, d}},
		{"one window", Config{Duration: d}, []sim.Duration{d}},
		{"drains win over period", Config{Duration: d, Drains: 1, Period: sim.Millisecond},
			[]sim.Duration{d}},
		{"no time, no window", Config{Period: sim.Second}, nil},
	} {
		if got := drainInstants(t, tc.cfg); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: drains at %v, want %v", tc.name, got, tc.want)
		}
	}
	// A scheduler plans every window within its bounds; the last one is
	// cut short at Duration.
	pol := &tracers.DrainPolicy{Min: 10 * sim.Millisecond, Max: 300 * sim.Millisecond}
	at := drainInstants(t, Config{Duration: d, Policy: pol, RingCapacity: 64, Period: sim.Second})
	var prev sim.Duration
	for i, a := range at {
		if step := a - prev; step < pol.Min && i != len(at)-1 || step > pol.Max {
			t.Fatalf("scheduled drains at %v: step %v outside [%v, %v]", at, step, pol.Min, pol.Max)
		}
		prev = a
	}
	if prev != d {
		t.Fatalf("scheduled drains end at %v, want %v", prev, d)
	}
}

// TestEarlyStopCutsFinalSnapshot checks a session ended by its window
// callback: it stops after that window, and the shutdown cuts a final
// snapshot of the events that arrived after the last cut.
func TestEarlyStopCutsFinalSnapshot(t *testing.T) {
	s, err := New(Config{Seed: 1, CPUs: 2, Build: buildSYN,
		Duration: 10 * sim.Second, Period: sim.Second, SnapshotEvery: 2 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	var kc trace.KindCounter
	s.Fanout.Add("count", &kc)
	var cuts []int
	rep, err := s.Run(func(win Window) bool {
		if win.Snapshot != nil {
			cuts = append(cuts, win.Index)
		}
		return win.Index < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != 3 || !reflect.DeepEqual(cuts, []int{1}) {
		t.Fatalf("%d windows with cuts after %v, want 3 windows and a cut after window 1", rep.Windows, cuts)
	}
	if rep.Final == nil || rep.Final.Seq != 2 || rep.Final.Events != uint64(kc.Total()) {
		t.Fatalf("final snapshot %+v, want snapshot 2 over all %d events", rep.Final, kc.Total())
	}
}
