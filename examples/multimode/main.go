// Multimode example: Fig. 2's per-scenario merging. Traces collected in a
// nominal mode and in a degraded mode (front LIDAR failed) are merged per
// mode, yielding a multi-mode timing model whose per-mode DAGs differ —
// the basis for mode-aware schedulability analysis.
//
//	go run ./examples/multimode
package main

import (
	"fmt"
	"log"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/harness"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
)

func main() {
	mm := core.NewMultiModeDAG()

	for run := 0; run < 3; run++ {
		synth := core.NewSynthesizeSink()
		if _, err := harness.RunSession(uint64(10+run), 8, 15*sim.Second, true, func(w *rclcpp.World) {
			apps.BuildAVP(w, apps.AVPConfig{})
		}, synth); err != nil {
			log.Fatal(err)
		}
		mm.Add("nominal", synth.DAG())
	}
	for run := 0; run < 3; run++ {
		synth := core.NewSynthesizeSink()
		if _, err := harness.RunSession(uint64(20+run), 8, 15*sim.Second, true, func(w *rclcpp.World) {
			apps.BuildAVP(w, apps.AVPConfig{NoFrontSensor: true})
		}, synth); err != nil {
			log.Fatal(err)
		}
		mm.Add("front-lidar-failed", synth.DAG())
	}

	for _, mode := range mm.ModeNames() {
		d := mm.Modes[mode]
		fmt.Printf("== mode %q: %d vertices, %d edges ==\n", mode, len(d.Vertices), len(d.Edges()))
		fmt.Print(core.Summary(d))
		fmt.Println()
	}

	union := mm.Union()
	fmt.Printf("== union model: %d vertices, %d edges ==\n", len(union.Vertices), len(union.Edges()))
	fmt.Println("\nIn the degraded mode the fusion never completes, so the voxel-grid and")
	fmt.Println("localizer callbacks vanish from the model — a structural mode change that")
	fmt.Println("single-mode DAGs cannot express.")
}
