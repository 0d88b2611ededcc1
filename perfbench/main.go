// Command perfbench is the end-to-end benchmark of the tracing pipeline.
//
// One unit of work is a traced session as a user runs it: the rostracer
// binary traces a simulated ROS 2 host running SYN + AVP into a fresh
// trace store, cutting live model snapshots and evaluating alert rules as
// it goes, and the modelsynth binary then synthesizes the timing model
// from that store. Each session's outputs are checked: both processes
// exit cleanly with nothing lost and no alert fired, the events traced,
// snapshotted and read back agree, the last live snapshot is
// byte-identical to the model rebuilt from disk, and that model has the
// application's designed shape.
//
// Usage (from the repository root; run.sh builds perfbench and both
// binaries from the checkout and runs it):
//
//	perfbench -workload both -seed 1 -seconds 45 -trace 0 -bin DIR
//
// With -trace 0, after one untimed warmup session, the run repeats
// sessions for -seconds of wall time, their checks included, each after a
// rostracer invocation that traces nothing (the set-up cost), and reports
// the processes' CPU times. With -trace 1 it runs the same sessions in
// this process instead, timing every stage of each, and reports the
// per-layer ledger; those times are for attributing cost, not for
// comparing against untraced runs. The last line of standard output is
// one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errWrong marks a session whose outputs failed a correctness check, as
// opposed to one whose operations failed.
var errWrong = errors.New("wrong output")

func main() {
	name := flag.String("workload", "", "workload to run: both or both-v1")
	seed := flag.Uint64("seed", 1, "seed the session inputs derive from")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds to measure")
	traced := flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the rostracer and modelsynth binaries")
	dir := flag.String("dir", ".bench_build", "scratch directory for the trace stores")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload both|both-v1, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	scratch := filepath.Join(*dir, fmt.Sprintf("perfbench-%d", os.Getpid()))
	res, err := run(wl, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1,
		tools{filepath.Join(*bin, "rostracer"), filepath.Join(*bin, "modelsynth"), scratch})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures sessions of wl for the given wall time. A session whose
// outputs are wrong makes the run incorrect, the warmup session included;
// one whose operations fail counts as failed. Either way the run stops
// there and reports what it measured. Only a run that measured nothing
// because its operations failed ends in an error.
func run(wl workload, seed uint64, measure time.Duration, traced bool, t tools) (result, error) {
	defer os.RemoveAll(t.dir)
	res := result{Correct: true}
	session := t.session
	if traced {
		var buf trace.Collector
		session = func(wl workload, seed uint64) (sample, error) {
			// Every session starts from a collected heap, so the collector's
			// phase when a session begins does not vary from run to run.
			runtime.GC()
			return tracedSession(wl, seed, filepath.Join(t.dir, "store"), &buf)
		}
	}
	seeds := sim.NewRNG(seed)
	var samples []sample
	var deadline time.Time
	for warm := true; warm || time.Now().Before(deadline); warm = false {
		s, err := session(wl, seeds.Uint64())
		if err == nil && warm {
			deadline = time.Now().Add(measure)
			continue
		}
		wrong := errors.Is(err, errWrong)
		if err != nil && !wrong && len(samples) == 0 {
			return res, err
		}
		res.Attempted++
		if err == nil || wrong {
			samples = append(samples, s)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: session %d: %v\n", res.Attempted, err)
			res.Correct = false
			if !wrong {
				res.Failed++
			}
			break
		}
	}
	if traced {
		res.Metrics = ledger(samples)
	} else {
		res.Metrics = endToEnd(samples)
	}
	return res, nil
}

// endToEnd reports what a user of the tracer pays, per traced event so
// that seeds with different event volumes compare: the CPU time (all
// threads, user and system, GC included) of the rostracer process for a
// session and of modelsynth rebuilding its model from disk, as medians
// over the sessions, the 90th percentile of tracing (at least ten
// sessions lie above it in a run of 100 or more), and the median set-up.
// Wall time is not reported: on a shared host it counts the time the
// host withholds the CPU. On a 2-vCPU virtual machine, ten runs' wall
// medians spread by a third (IQR over median) where CPU time spread by a
// sixth.
func endToEnd(samples []sample) map[string]metric {
	perEvent := func(q float64, f func(s sample) time.Duration) float64 {
		var v []float64
		for _, s := range samples {
			v = append(v, float64(f(s))/float64(max(s.events, 1)))
		}
		return quantile(v, q)
	}
	var setups []float64
	for _, s := range samples {
		setups = append(setups, s.setup.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d sessions, %d events in the first\n", len(samples), samples[0].events)
	trace := func(s sample) time.Duration { return s.trace }
	return map[string]metric{
		"trace_cpu_ns_per_event":     {perEvent(0.5, trace), "ns"},
		"trace_cpu_p90_ns_per_event": {perEvent(0.9, trace), "ns"},
		"model_cpu_ns_per_event":     {perEvent(0.5, func(s sample) time.Duration { return s.model }), "ns"},
		"setup_s":                    {quantile(setups, 0.5), "s"},
	}
}

// ledger reports the per-layer costs of the traced sessions as sums over
// the run divided by the events traced. The stages tile each session's
// wall time, so their ns/event add up to session_ns_per_event.
func ledger(samples []sample) map[string]metric {
	var events, wall float64
	var stages [numStages]float64
	var simSteps, switches, probeRuns, ringBytes, storeBytes, allocs, allocBytes, gcs float64
	backlog := 0
	for _, s := range samples {
		events += float64(s.events)
		for i, d := range s.stages {
			stages[i] += float64(d)
			wall += float64(d)
		}
		simSteps += float64(s.simSteps)
		switches += float64(s.switches)
		probeRuns += float64(s.probeRuns)
		ringBytes += float64(s.ringBytes)
		storeBytes += float64(s.storeBytes)
		allocs += float64(s.allocs)
		allocBytes += float64(s.allocBytes)
		gcs += float64(s.gcs)
		backlog = max(backlog, s.backlog)
	}
	n := float64(len(samples))
	events = max(events, 1)
	m := map[string]metric{
		"session_ns_per_event":  {wall / events, "ns"},
		"events_per_session":    {events / n, "count"},
		"sim_steps_per_event":   {simSteps / events, "count"},
		"switches_per_event":    {switches / events, "count"},
		"probe_runs_per_event":  {probeRuns / events, "count"},
		"ring_bytes_per_event":  {ringBytes / events, "B"},
		"store_bytes_per_event": {storeBytes / events, "B"},
		"ring_backlog_max":      {float64(backlog), "count"},
		"allocs_per_event":      {allocs / events, "count"},
		"alloc_bytes_per_event": {allocBytes / events, "B"},
		"gc_cycles_per_session": {gcs / n, "count"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d traced sessions, %.0f events; ns/event by stage:\n", len(samples), events)
	for i, name := range stageNames {
		m[name+"_ns_per_event"] = metric{stages[i] / events, "ns"}
		fmt.Fprintf(os.Stderr, "  %-10s %9.1f  %5.1f%%\n", name, stages[i]/events, 100*stages[i]/wall)
	}
	return m
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics.
func quantile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := math.Floor(pos)
	hi := math.Min(lo+1, float64(len(s)-1))
	return s[int(lo)] + (pos-lo)*(s[int(hi)]-s[int(lo)])
}
