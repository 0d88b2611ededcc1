// Package harness drives the paper's experiments: it runs traced
// simulation sessions and regenerates every table and figure of the
// evaluation (Table I, Table II, Fig. 3a, Fig. 3b, Fig. 4, the tracing
// overheads, the Fig. 2 deployment strategies, and the modeling
// ablations). Each experiment returns a Result whose Text is the
// regenerated artifact; cmd/experiments prints them and EXPERIMENTS.md
// records them against the paper's numbers.
package harness

import (
	"fmt"
	"strings"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/pipeline"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sched"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// Result is one regenerated artifact.
type Result struct {
	ID    string // experiment id, e.g. "tableII"
	Title string
	Text  string // the regenerated table / series
	OK    bool   // whether the reproduced shape matches the paper
	Notes []string
}

func (r Result) String() string {
	status := "OK"
	if !r.OK {
		status = "MISMATCH"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s [%s]\n%s", r.ID, r.Title, status, r.Text)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config scales the experiments. Defaults approximate the paper's setup
// (50 runs); tests use smaller values.
type Config struct {
	Runs     int
	Duration sim.Duration // traced span per run
	CPUs     int
	Seed     uint64
	// workers bounds how many of an experiment's independent seeded runs
	// execute concurrently: 0 means GOMAXPROCS, 1 forces sequential
	// execution. Only tests set it, to check that Result.Text, merged in
	// run order, is byte-identical for every worker count.
	workers int
}

// Defaults returns the paper-scale configuration.
func Defaults() Config {
	return Config{Runs: 50, Duration: 20 * sim.Second, CPUs: 12, Seed: 1}
}

func (c Config) withDefaults() Config {
	d := Defaults()
	if c.Runs <= 0 {
		c.Runs = d.Runs
	}
	if c.Duration <= 0 {
		c.Duration = d.Duration
	}
	if c.CPUs <= 0 {
		c.CPUs = d.CPUs
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// RunSession runs the deployment sequence of Fig. 2 (kernel tracer
// filtered unless stated) for duration with one drain at the end,
// streaming the trace into sink: decoded events flow from the per-CPU
// rings through the tournament merge straight into the sink, and no
// merged trace is ever materialized. The returned session holds the
// world and the bundle with their cost and ring counters.
func RunSession(seed uint64, cpus int, duration sim.Duration, filteredKernel bool,
	build func(*rclcpp.World), sink trace.Sink) (*pipeline.Session, error) {
	ps, err := pipeline.New(pipeline.Config{
		Seed: seed, CPUs: cpus, Build: build, UnfilteredKernel: !filteredKernel,
		Duration: duration,
	})
	if err != nil {
		return nil, err
	}
	ps.Fanout.Add("sink", sink)
	if _, err := ps.Run(nil); err != nil {
		return nil, err
	}
	return ps, nil
}

// BuildBoth builds AVP and SYN concurrently (the paper's Sec. VI setup),
// with the SYN load scaled per run for the Fig. 4 interference variation.
func BuildBoth(loadScale float64) func(*rclcpp.World) {
	return func(w *rclcpp.World) {
		apps.BuildAVP(w, apps.AVPConfig{Prio: 5})
		apps.BuildSYN(w, apps.SYNConfig{Prio: 7, LoadScale: loadScale})
	}
}

// loadScaleForRun varies the SYN interfering load across runs, as the
// paper does when studying sensitivity of AVP's profiles.
func loadScaleForRun(run int) float64 {
	return 0.5 + 1.5*float64(run%10)/9.0 // 0.5x .. 2.0x
}

// SpawnChatter creates n untraced OS threads that alternate a short
// compute and a sleep, standing in for the rest of a busy host (browsers,
// daemons, ...). They are not ROS2 nodes, so the PID-filtered kernel
// tracer must drop their context switches — the memory-footprint argument
// of Sec. III-B.
func SpawnChatter(w *rclcpp.World, n int, period sim.Duration) {
	m := w.Machine()
	for i := 0; i < n; i++ {
		phase := period * sim.Duration(i) / sim.Duration(n)
		state := 0
		var pid sched.PID
		wake := func() { m.Wake(pid) }
		th := m.Spawn(fmt.Sprintf("host_proc_%d", i), 1, 0, sched.ProcFunc(func(*sched.Machine) sched.Demand {
			state++
			if state == 1 {
				// Initial desynchronization.
				w.Engine().After(phase, wake)
				return sched.Block()
			}
			if state%2 == 0 {
				return sched.Compute(50 * sim.Microsecond)
			}
			w.Engine().After(period, wake)
			return sched.Block()
		}))
		pid = th.PID()
	}
}
