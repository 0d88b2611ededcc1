package harness

import (
	"fmt"
	"strings"

	"github.com/tracesynth/rostracer/internal/pipeline"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// adaptiveCapacity is the bounded-ring operating point the adaptive
// drain is demonstrated at: the tightest capacity of the capacity
// sweep, where fixed-period draining demonstrably loses records.
const adaptiveCapacity = 256

// adaptiveFixedDrains is the fixed-period comparison point: the middle
// drain cadence of the capacity sweep (period = duration/8), lossy at
// adaptiveCapacity on the SYN+AVP workload.
const adaptiveFixedDrains = 8

// adaptiveRun is one measured drain-loop configuration.
type adaptiveRun struct {
	mode       string
	drains     int
	ringDrains int // every drain covers every ring
	events     int
	lost       uint64
	minPeriod  sim.Duration
	maxPeriod  sim.Duration
}

// AdaptiveDrainExperiment (E12) closes the capacity-planning loop: at a
// (capacity, period) point where the fixed-period sweep loses records,
// a DrainScheduler driven by per-ring pending high-water marks starts
// from a short calibration window, plans each next period for the
// observed fill rate, and recovers the full event stream with zero
// overruns — without hand-tuning the cadence to the workload.
func AdaptiveDrainExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()

	// Both cadences share the fixed row's period; the adaptive one may
	// plan any window down to minPeriod.
	period := cfg.Duration / adaptiveFixedDrains
	session := func(mode string, minPeriod sim.Duration) (adaptiveRun, error) {
		ps, err := pipeline.New(pipeline.Config{
			Seed: cfg.Seed, CPUs: cfg.CPUs, Build: BuildBoth(1), RingCapacity: adaptiveCapacity,
			Duration: cfg.Duration, Period: period, MinPeriod: minPeriod,
		})
		if err != nil {
			return adaptiveRun{}, err
		}
		var kc trace.KindCounter
		ps.Fanout.Add("count", &kc)
		r := adaptiveRun{mode: mode}
		rep, err := ps.Run(func(win pipeline.Window) bool {
			if r.minPeriod == 0 || win.Step < r.minPeriod {
				r.minPeriod = win.Step
			}
			r.maxPeriod = max(r.maxPeriod, win.Step)
			return true
		})
		if err != nil {
			return adaptiveRun{}, err
		}
		r.drains, r.ringDrains = rep.Windows, rep.Windows*ps.Bundle.NumRings()
		r.events, r.lost = kc.Total(), ps.Bundle.Lost()
		return r, nil
	}

	// Fixed cadence: the sweep's lossy operating point.
	fixed, err := session("fixed", 0)
	if err != nil {
		return Result{}, err
	}
	// Adaptive cadence: same capacity, same workload; the scheduler may
	// plan anywhere between duration/128 and the fixed period.
	adaptive, err := session("adaptive", cfg.Duration/128)
	if err != nil {
		return Result{}, err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "workload: SYN + AVP, %v per run, %d CPUs; per-ring capacity %d\n",
		cfg.Duration, cfg.CPUs, adaptiveCapacity)
	fmt.Fprintf(&sb, "%-10s %-8s %-12s %-14s %-14s %10s %10s\n",
		"mode", "drains", "ring-drains", "min period", "max period", "events", "lost")
	for _, r := range []adaptiveRun{fixed, adaptive} {
		fmt.Fprintf(&sb, "%-10s %-8d %-12d %-14v %-14v %10d %10d\n",
			r.mode, r.drains, r.ringDrains, r.minPeriod, r.maxPeriod, r.events, r.lost)
	}

	ok := true
	var notes []string
	if fixed.lost == 0 {
		ok = false
		notes = append(notes, "fixed-period baseline lost nothing; operating point uninformative")
	}
	if adaptive.lost != 0 {
		ok = false
		notes = append(notes, fmt.Sprintf("adaptive drain lost %d records", adaptive.lost))
	}
	// The simulation is deterministic and drains don't perturb it, so
	// both runs emit the same stream: adaptive must recover exactly what
	// the fixed run drained plus what it dropped.
	if adaptive.events != fixed.events+int(fixed.lost) {
		ok = false
		notes = append(notes, fmt.Sprintf(
			"adaptive drained %d events, want %d (fixed %d + lost %d)",
			adaptive.events, fixed.events+int(fixed.lost), fixed.events, fixed.lost))
	}
	return Result{ID: "adaptive-drain",
		Title: "Adaptive drain scheduling vs fixed period (bounded rings)",
		Text:  sb.String(), OK: ok, Notes: notes}, nil
}
