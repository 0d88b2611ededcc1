package pipeline

import (
	"reflect"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

func buildSYN(w *rclcpp.World) { apps.BuildSYN(w, apps.SYNConfig{}) }

// drainWindows runs cfg and returns every drain window.
func drainWindows(t *testing.T, cfg Config) []Window {
	t.Helper()
	cfg.Seed, cfg.CPUs, cfg.Build = 1, 2, buildSYN
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wins []Window
	if _, err := s.Run(func(win Window) bool {
		wins = append(wins, win)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return wins
}

func TestDrainInstants(t *testing.T) {
	d := sim.Second + 1
	period := 400 * sim.Millisecond
	for _, tc := range []struct {
		name string
		cfg  Config
		want []sim.Duration
		next sim.Duration // every window's planned next period
	}{
		{"period, short last window", Config{Duration: d, Period: period},
			[]sim.Duration{period, 2 * period, d}, period},
		{"fixed period on bounded rings", Config{Duration: d, Period: period, RingCapacity: 64},
			[]sim.Duration{period, 2 * period, d}, period},
		{"one window", Config{Duration: d}, []sim.Duration{d}, d},
		{"no time, no window", Config{Period: sim.Second}, nil, 0},
	} {
		var at []sim.Duration
		for _, win := range drainWindows(t, tc.cfg) {
			at = append(at, win.Elapsed)
			if win.Next != tc.next {
				t.Errorf("%s: window %d plans %v next, want %v", tc.name, win.Index, win.Next, tc.next)
			}
		}
		if !reflect.DeepEqual(at, tc.want) {
			t.Errorf("%s: drains at %v, want %v", tc.name, at, tc.want)
		}
	}
	// With a MinPeriod the scheduler plans every window within
	// [MinPeriod, Period]; the last one is cut short at Duration.
	minP, maxP := 10*sim.Millisecond, 300*sim.Millisecond
	wins := drainWindows(t, Config{Duration: d, Period: maxP, MinPeriod: minP, RingCapacity: 64})
	var prev sim.Duration
	steps := map[sim.Duration]bool{}
	for i, win := range wins {
		if step := win.Elapsed - prev; step < minP && i != len(wins)-1 || step > maxP {
			t.Fatalf("scheduled window %d at %v: step %v outside [%v, %v]", i, win.Elapsed, step, minP, maxP)
		}
		if win.Next < minP || win.Next > maxP {
			t.Fatalf("scheduled window %d plans %v next, outside [%v, %v]", i, win.Next, minP, maxP)
		}
		steps[win.Step] = true
		prev = win.Elapsed
	}
	if prev != d || len(steps) < 2 {
		t.Fatalf("scheduled drains end at %v with %d distinct steps, want the end at %v and a planned cadence", prev, len(steps), d)
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
