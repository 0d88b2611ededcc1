// AVP example: reproduce the paper's case study end to end — trace the
// Autoware AVP LIDAR-localization pipeline over several runs, merge the
// per-run DAGs, and print Fig. 3b's structure with Table II's statistics,
// plus the downstream analyses the model enables.
//
//	go run ./examples/avp
package main

import (
	"fmt"
	"log"
	"sort"

	"github.com/tracesynth/rostracer/internal/analysis"
	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/harness"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
)

func main() {
	const runs = 10
	const duration = 20 * sim.Second

	var dags []*core.DAG
	var lastModel *core.Model
	for run := 0; run < runs; run++ {
		b := core.NewModelBuilder()
		if _, err := harness.RunSession(uint64(run+1), 12, duration, true, func(w *rclcpp.World) {
			apps.BuildAVP(w, apps.AVPConfig{})
		}, b); err != nil {
			log.Fatal(err)
		}
		m := b.Finish()
		dags = append(dags, core.BuildDAG(m))
		lastModel = m
	}
	dag := core.MergeDAGs(dags...)

	fmt.Println("== synthesized AVP localization model (Fig. 3b) ==")
	fmt.Print(core.Summary(dag))

	fmt.Println("\n== computation chains and response bounds ==")
	for _, c := range analysis.Chains(dag, 0) {
		fmt.Printf("  bound %.2f ms: ", analysis.ChainWCETBound(dag, c).Milliseconds())
		for i, k := range c.Keys {
			if i > 0 {
				fmt.Print(" -> ")
			}
			fmt.Print(dag.Vertices[k].Label())
		}
		fmt.Println()
	}

	fmt.Println("\n== measured end-to-end latency (front LIDAR chain) ==")
	stats, dropped := analysis.ChainLatencies(lastModel, []string{
		apps.TopicFrontRaw, apps.TopicFrontFiltered, apps.TopicFused, apps.TopicDownsampled,
	})
	fmt.Printf("  %d flows: min %.2f ms, mean %.2f ms, max %.2f ms (%d incomplete)\n",
		stats.Count, stats.Min.Milliseconds(), stats.Mean.Milliseconds(),
		stats.Max.Milliseconds(), dropped)

	fmt.Println("\n== processor loads and a 4-core binding ==")
	loads := analysis.Loads(dag, sim.Duration(runs)*duration)
	for _, l := range loads {
		fmt.Printf("  %-64.64s %5.1f Hz %8.2f ms %6.1f%%\n",
			l.Key, l.RateHz, l.ACET.Milliseconds(), 100*l.Utilization)
	}
	binding := analysis.GreedyBinding(analysis.NodeLoads(loads), 4)
	nodes := make([]string, 0, len(binding.CPUOf))
	for node := range binding.CPUOf {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		fmt.Printf("  cpu%d <- %s\n", binding.CPUOf[node], node)
	}
	fmt.Printf("  max core load %.1f%%\n", 100*binding.MaxLoad)
}
