package sched_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/harness"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sched"
	"github.com/tracesynth/rostracer/internal/sim"
)

// worldRun is what one simulated world's scheduler produced.
type worldRun struct {
	switches []sched.Switch
	wakeups  []sched.Wakeup
	cpuTime  []sim.Duration
	states   []sched.ThreadState
}

// runWorld simulates a random ROS 2 pipeline on a busy host — untraced
// chatter threads plus pinned, higher-priority background load — and
// records the scheduler's output.
func runWorld(seed uint64, cpus int, reference bool) worldRun {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: cpus, Seed: seed})
	m := w.Machine()
	if reference {
		sched.UseScanReference(m)
	}
	var r worldRun
	m.OnSwitch = func(s sched.Switch) { r.switches = append(r.switches, s) }
	m.OnWakeup = func(u sched.Wakeup) { r.wakeups = append(r.wakeups, u) }
	rng := sim.NewRNG(seed)
	apps.BuildRandomPipeline(w, rng, 1+rng.Intn(4), 1+rng.Intn(4))
	harness.SpawnChatter(w, 4+rng.Intn(12), sim.Duration(1+rng.Intn(3))*sim.Millisecond)
	apps.BackgroundLoad(w, 1+rng.Intn(3), 7, uint64(1)<<rng.Intn(cpus),
		5*sim.Millisecond, sim.Duration(200+rng.Intn(800))*sim.Microsecond)
	w.Run(2 * sim.Second)
	if msg := sched.CheckInvariants(m); msg != "" {
		panic(fmt.Sprintf("seed %d cpus %d reference=%v: %s", seed, cpus, reference, msg))
	}
	for _, th := range m.Threads() {
		r.cpuTime = append(r.cpuTime, th.CPUTime())
		r.states = append(r.states, th.State())
	}
	return r
}

// TestRunQueueMatchesScanReferenceInWorlds runs the same seeded
// apps.BuildRandomPipeline worlds with harness.SpawnChatter under the run
// queue and under the scan-and-sort reference, and requires identical
// switch and wakeup streams and per-thread CPU time.
func TestRunQueueMatchesScanReferenceInWorlds(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 12} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("cpus=%d/seed=%d", cpus, seed), func(t *testing.T) {
				got, want := runWorld(seed, cpus, false), runWorld(seed, cpus, true)
				if len(want.switches) < 100 {
					t.Fatalf("world too quiet: %d switches", len(want.switches))
				}
				for i := 0; i < len(got.switches) && i < len(want.switches); i++ {
					if got.switches[i] != want.switches[i] {
						t.Fatalf("switch %d differs:\n got  %+v\n want %+v", i, got.switches[i], want.switches[i])
					}
				}
				if len(got.switches) != len(want.switches) {
					t.Fatalf("%d switches, reference %d", len(got.switches), len(want.switches))
				}
				if !reflect.DeepEqual(got.wakeups, want.wakeups) {
					t.Fatalf("wakeup streams differ (%d vs %d)", len(got.wakeups), len(want.wakeups))
				}
				if !reflect.DeepEqual(got.cpuTime, want.cpuTime) || !reflect.DeepEqual(got.states, want.states) {
					t.Fatalf("per-thread outcome differs:\n got  %v %v\n want %v %v", got.cpuTime, got.states, want.cpuTime, want.states)
				}
			})
		}
	}
}
