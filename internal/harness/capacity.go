package harness

import (
	"fmt"
	"strings"

	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/pipeline"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// capacitySweepCapacities are the per-ring record bounds swept (0 =
// unbounded, the figure-experiment configuration).
var capacitySweepCapacities = []int{256, 2048, 0}

// capacitySweepDrains are the drains-per-run points of the sweep. Each
// divides the next, so later points drain at a superset of the earlier
// points' instants and lost counts are provably non-increasing along a
// row.
var capacitySweepDrains = []int{1, 8, 32}

// capRun is one (capacity, drain period) measurement.
type capRun struct {
	capacity  int
	drains    int
	events    int
	lost      uint64
	worstCPU  int
	worstLost uint64
	perCPU    []ebpf.RingStats
}

// CapacityPlanExperiment (E11) sweeps per-ring capacity against drain
// period on the SYN+AVP workload and reports lost records per CPU — the
// capacity-planning data a deployment needs to size its
// perf_event_array rings against its polling budget. The streaming
// drain makes the sweep cheap: every period's segments stream into a
// counting sink, so even the 32-drain column costs no trace
// materialization.
func CapacityPlanExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()

	type combo struct{ capacity, drains int }
	var combos []combo
	for _, c := range capacitySweepCapacities {
		for _, n := range capacitySweepDrains {
			combos = append(combos, combo{c, n})
		}
	}
	runs, err := runSeries(cfg.workers, len(combos), func(i int) (capRun, error) {
		c := combos[i]
		ps, err := pipeline.New(pipeline.Config{
			Seed: cfg.Seed, CPUs: cfg.CPUs, Build: BuildBoth(1), RingCapacity: c.capacity,
			// The last window ends at cfg.Duration, so every combo
			// covers exactly that span; with cfg.Duration a multiple of
			// every point's drain count, each point's drain instants are
			// a subset of the next point's.
			Duration: cfg.Duration, Period: cfg.Duration / sim.Duration(c.drains),
		})
		if err != nil {
			return capRun{}, err
		}
		var kc trace.KindCounter
		ps.Fanout.Add("count", &kc)
		if _, err := ps.Run(nil); err != nil {
			return capRun{}, err
		}
		b := ps.Bundle
		r := capRun{
			capacity: c.capacity, drains: c.drains,
			events: kc.Total(), lost: b.Lost(), perCPU: b.PerCPU(),
		}
		for cpu, st := range r.perCPU {
			if st.Lost > r.worstLost {
				r.worstLost, r.worstCPU = st.Lost, cpu
			}
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "workload: SYN + AVP, %v per run, %d CPUs; rings per tracer: 1/CPU\n",
		cfg.Duration, cfg.CPUs)
	fmt.Fprintf(&b, "%-10s %-8s %-12s %10s %10s   %s\n",
		"capacity", "drains", "period", "events", "lost", "worst ring")
	ok := true
	var notes []string
	byCombo := map[[2]int]capRun{}
	for _, r := range runs {
		byCombo[[2]int{r.capacity, r.drains}] = r
		capLabel := fmt.Sprintf("%d", r.capacity)
		if r.capacity == 0 {
			capLabel = "unbounded"
		}
		worst := "-"
		if r.worstLost > 0 {
			worst = fmt.Sprintf("cpu%d: %d lost", r.worstCPU, r.worstLost)
		}
		fmt.Fprintf(&b, "%-10s %-8d %-12v %10d %10d   %s\n",
			capLabel, r.drains, cfg.Duration/sim.Duration(r.drains), r.events, r.lost, worst)
	}

	// Unbounded rings must never lose a record, whatever the period.
	for _, n := range capacitySweepDrains {
		if r := byCombo[[2]int{0, n}]; r.lost != 0 {
			ok = false
			notes = append(notes, fmt.Sprintf("unbounded rings lost %d records at %d drains", r.lost, n))
		}
	}
	// Along a capacity row, draining more often never loses more: later
	// sweep points drain at a superset of the earlier points' instants.
	for _, c := range capacitySweepCapacities {
		for i := 1; i < len(capacitySweepDrains); i++ {
			prev := byCombo[[2]int{c, capacitySweepDrains[i-1]}]
			cur := byCombo[[2]int{c, capacitySweepDrains[i]}]
			if cur.lost > prev.lost {
				ok = false
				notes = append(notes, fmt.Sprintf(
					"capacity %d: lost grew from %d to %d as drains went %d -> %d",
					c, prev.lost, cur.lost, prev.drains, cur.drains))
			}
		}
	}
	// The sweep must be informative: the tightest configuration has to
	// overrun, otherwise every point is trivially lossless.
	tight := byCombo[[2]int{capacitySweepCapacities[0], capacitySweepDrains[0]}]
	if tight.lost == 0 {
		ok = false
		notes = append(notes, fmt.Sprintf(
			"capacity %d with a single drain lost nothing; sweep uninformative",
			tight.capacity))
	} else {
		var per []string
		for cpu, st := range tight.perCPU {
			if st.Lost > 0 {
				per = append(per, fmt.Sprintf("cpu%d=%d", cpu, st.Lost))
			}
		}
		fmt.Fprintf(&b, "per-CPU losses at capacity %d, single drain: %s\n",
			tight.capacity, strings.Join(per, " "))
	}
	// Draining within capacity recovers the full event stream: at the
	// fastest drain cadence, every bounded configuration must account
	// for exactly the events the unbounded one emitted — drained plus
	// lost.
	maxDrains := capacitySweepDrains[len(capacitySweepDrains)-1]
	unbounded, haveUnbounded := byCombo[[2]int{0, maxDrains}]
	for _, c := range capacitySweepCapacities {
		if c == 0 || !haveUnbounded {
			continue
		}
		best := byCombo[[2]int{c, maxDrains}]
		if best.events+int(best.lost) != unbounded.events {
			ok = false
			notes = append(notes, fmt.Sprintf(
				"capacity %d at %d drains: events %d + lost %d != total emitted %d",
				c, maxDrains, best.events, best.lost, unbounded.events))
		}
	}
	return Result{ID: "capacity-plan",
		Title: "Per-ring capacity vs drain period (capacity planning)",
		Text:  b.String(), OK: ok, Notes: notes}, nil
}
