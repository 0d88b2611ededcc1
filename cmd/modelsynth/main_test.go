package main

import (
	"bytes"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// loadsSession traces 3 s of SYN + AVP on 6 CPUs (seed 9) into a store
// and synthesizes it the way modelsynth does: the session streamed off
// disk into a SynthesizeSink, its span tracked alongside.
func loadsSession(t *testing.T) (*core.DAG, sim.Duration) {
	t.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 6, Seed: 9})
	b, err := tracers.NewBundle(w.Runtime())
	if err != nil {
		t.Fatal(err)
	}
	tracers.BridgeSched(w.Machine(), w.Runtime())
	for _, err := range []error{b.StartInit(), b.StartRT(), b.StartKernel(true)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	apps.BuildSYN(w, apps.SYNConfig{})
	apps.BuildAVP(w, apps.AVPConfig{})
	b.StopInit()
	w.Run(3 * sim.Second)
	tr, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	store, err := trace.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveSegment("run", 0, tr); err != nil {
		t.Fatal(err)
	}
	sink := core.NewSynthesizeSink()
	var span trace.SpanTracker
	if err := store.StreamSession("run", trace.MultiSink(sink, &span)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	first, last := span.Span()
	return sink.DAG(), last.Sub(first)
}

// pinLoads is modelsynth -loads over loadsSession.
const pinLoads = `
processor loads:
  filter_transform_vlp16_front|sub|lidar_front/points_raw        9.67 Hz     26.83 ms   25.93%
  p2d_ndt_localizer_node|sub|lidars/points_fused_downsampled     9.67 Hz     21.56 ms   20.84%
  filter_transform_vlp16_rear|sub|lidar_rear/points_raw          9.67 Hz     16.98 ms   16.42%
  voxel_grid_cloud_node|sub|lidars/points_fused                  9.67 Hz      8.52 ms    8.24%
  point_cloud_fusion|sub|lidar_front/points_filtered|sync        9.67 Hz      2.80 ms    2.71%
  syn_node1|timer|/t1                                            9.67 Hz      2.00 ms    1.93%
  syn_node2|sub|/f2|sync                                         4.67 Hz      3.40 ms    1.59%
  syn_node2|sub|/t1                                              9.67 Hz      1.50 ms    1.45%
  syn_node1|service|rq/sv3Request@caller:syn_node5|sub|/t3       6.33 Hz      2.00 ms    1.27%
  syn_node2|client|rr/sv1Reply                                   9.67 Hz      1.00 ms    0.97%
  syn_node4|service|rq/sv1Request@caller:syn_node2|sub|/t1       9.67 Hz      1.00 ms    0.97%
  syn_node1|service|rq/sv3Request@caller:syn_node3|client|rr/s   4.67 Hz      2.00 ms    0.93%
  point_cloud_fusion|sub|lidar_rear/points_filtered|sync         9.67 Hz      0.90 ms    0.87%
  syn_node5|sub|/t3                                              6.33 Hz      1.00 ms    0.63%
  syn_node3|timer|/t3                                            6.33 Hz      1.00 ms    0.63%
  syn_node5|client|rr/sv3Reply                                   6.33 Hz      0.90 ms    0.57%
  syn_node3|client|rr/sv2Reply                                   4.67 Hz      1.20 ms    0.56%
  syn_node2|sub|/clp3                                            6.33 Hz      0.80 ms    0.51%
  syn_node2|sub|/f1|sync                                         9.67 Hz      0.50 ms    0.48%
  syn_node3|timer|rq/sv2Request                                  4.67 Hz      1.00 ms    0.47%
  syn_node4|service|rq/sv2Request@caller:syn_node3|timer|rq/sv   4.67 Hz      1.00 ms    0.47%
  syn_node3|client|rr/sv3Reply                                   4.67 Hz      1.00 ms    0.47%
  syn_node1|sub|/clp3                                            6.33 Hz      0.60 ms    0.38%
greedy 4-core binding:
  cpu0 <- filter_transform_vlp16_front
  cpu2 <- filter_transform_vlp16_rear
  cpu1 <- p2d_ndt_localizer_node
  cpu2 <- point_cloud_fusion
  cpu3 <- syn_node1
  cpu3 <- syn_node2
  cpu3 <- syn_node3
  cpu3 <- syn_node4
  cpu2 <- syn_node5
  cpu3 <- voxel_grid_cloud_node
max core load: 25.93%
`

// TestLoadsTextPin pins the -loads report byte for byte, and checks it
// is the same on every call: the binding is printed by node, not in
// map order.
func TestLoadsTextPin(t *testing.T) {
	d, span := loadsSession(t)
	var first bytes.Buffer
	printLoads(&first, d, span)
	if got := first.String(); got != pinLoads {
		t.Fatalf("-loads text differs from the pin:\n--- got ---\n%s--- want ---\n%s", got, pinLoads)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		printLoads(&again, d, span)
		if again.String() != first.String() {
			t.Fatalf("call %d printed a different report:\n%s", i+2, again.String())
		}
	}
}
