// Quickstart: trace a two-node ROS2 application and synthesize its timing
// model in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/pipeline"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
)

func main() {
	// 1. The application: a 10 Hz camera driver and a detector.
	build := func(world *rclcpp.World) {
		camera := world.NewNode("camera_driver", 5, 0)
		frames := camera.CreatePublisher("/camera/frames")
		camera.CreateTimer(100*sim.Millisecond, 0, rclcpp.SimpleBody{
			ET:     sim.TruncNormal{Mean: 2 * sim.Millisecond, Stddev: 300 * sim.Microsecond, Min: sim.Millisecond, Max: 4 * sim.Millisecond},
			Action: func(*rclcpp.CallbackContext) { frames.Publish("frame") },
		})
		detector := world.NewNode("object_detector", 5, 0)
		detections := detector.CreatePublisher("/detections")
		detector.CreateSubscription("/camera/frames", rclcpp.SimpleBody{
			ET:     sim.TruncNormal{Mean: 18 * sim.Millisecond, Stddev: 2 * sim.Millisecond, Min: 12 * sim.Millisecond, Max: 30 * sim.Millisecond},
			Action: func(*rclcpp.CallbackContext) { detections.Publish("boxes") },
		})
	}

	// 2. A simulated host (4 CPUs, deterministic seed) with the three
	// eBPF tracers (ROS2-INIT, ROS2-RT, Kernel) attached before the
	// application starts.
	session, err := pipeline.New(pipeline.Config{
		Seed: 42, CPUs: 4, Build: build, Duration: 10 * sim.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run 10 seconds of virtual time, streaming the trace into the
	// synthesis sink as it is drained.
	synth := core.NewSynthesizeSink()
	session.Fanout.Add("synthesis", synth)
	if _, err := session.Run(nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d trace events (%.1f kB)\n\n", synth.EventsFolded(), float64(session.Bundle.TraceBytes())/1e3)

	// 4. Synthesize the timing model.
	dag := synth.DAG()
	fmt.Print(core.Summary(dag))
	fmt.Println()
	fmt.Print(core.ToDOT(dag, "quickstart"))
}
