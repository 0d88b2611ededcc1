// Command experiments regenerates every table and figure of the paper's
// evaluation (Sec. VI), plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	experiments                  # run everything at paper scale (50 runs)
//	experiments -run tableII     # one experiment
//	experiments -runs 10 -duration 10s   # smaller scale
//
// Output is plain text: the regenerated table/series followed by an
// OK/MISMATCH verdict on the reproduced shape.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/tracesynth/rostracer/internal/harness"
	"github.com/tracesynth/rostracer/internal/sim"
)

type experiment struct {
	name string
	run  func(harness.Config) (harness.Result, error)
}

// experiments lists every experiment in the order a full run prints them.
var experiments = []experiment{
	{"tableI", harness.TableIExperiment},
	{"fig3a", harness.Fig3aExperiment},
	{"fig3b", harness.Fig3bExperiment},
	{"tableII", harness.TableIIExperiment},
	{"fig4", harness.Fig4Experiment},
	{"overheads", harness.OverheadsExperiment},
	{"fig2", harness.Fig2Experiment},
	{"ablation-service", harness.AblationServiceExperiment},
	{"ablation-sync", harness.AblationSyncExperiment},
	{"validation", harness.ValidationExperiment},
	{"capacity-plan", harness.CapacityPlanExperiment},
	{"adaptive-drain", harness.AdaptiveDrainExperiment},
	{"chaos", harness.ChaosExperiment},
}

func main() {
	log.SetFlags(0)
	run := flag.String("run", "", "experiment to run (default: all)")
	runs := flag.Int("runs", 50, "runs per experiment (paper: 50)")
	duration := flag.Duration("duration", 20*time.Second, "virtual duration per run")
	cpus := flag.Int("cpus", 12, "simulated CPU count (paper: Ryzen 3900X, 12 cores)")
	seed := flag.Uint64("seed", 1, "base seed")
	dot := flag.Bool("dot", false, "print DOT graphs attached to figure experiments")
	flag.Parse()

	cfg := harness.Config{
		Runs: *runs, Duration: sim.Duration(*duration), CPUs: *cpus, Seed: *seed,
	}

	var names []string
	var selected []experiment
	for _, e := range experiments {
		names = append(names, e.name)
		if *run == "" || e.name == *run {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		log.Fatalf("unknown experiment %q; have %v", *run, names)
	}

	failures := 0
	for _, e := range selected {
		start := time.Now()
		r, err := e.run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		if !*dot {
			r.Notes = filterDOT(r.Notes)
		}
		fmt.Println(r.String())
		fmt.Printf("(wall time %.1fs)\n\n", time.Since(start).Seconds())
		if !r.OK {
			failures++
		}
	}
	if failures > 0 {
		fmt.Printf("%d experiment(s) did not reproduce the expected shape\n", failures)
		os.Exit(1)
	}
}

func filterDOT(notes []string) []string {
	var out []string
	for _, n := range notes {
		if len(n) >= 7 && n[:7] == "digraph" {
			continue
		}
		out = append(out, n)
	}
	return out
}
