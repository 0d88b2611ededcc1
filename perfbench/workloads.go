package main

import (
	"fmt"
	"time"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/trace"
)

// workload is one rostracer invocation: SYN + AVP traced on 12 CPUs into
// a fresh store, then synthesized from it with modelsynth. Every session
// draws its own -seed from the run's --seed.
type workload struct {
	format        trace.Format
	duration      time.Duration
	segment       time.Duration
	snapshotEvery time.Duration
}

// Both workloads are the ROADMAP's reference run, `rostracer -app both
// -duration 60s -segment 1s` (~83k events), with the live model of
// docs/PERFORMANCE.md (-snapshot-every 10s) and the example alert rule of
// docs/OBSERVABILITY.md, which turns the metrics sink, the pipeline gauges
// and the built-in alert rules on. They differ in the segment format the
// store writes and modelsynth reads back: v2 is indexed and
// delta-compressed, v1 is the flat-record format rostracer still writes
// on request, ~4.8x larger on disk.
var workloads = map[string]workload{
	"both":    {format: trace.FormatV2, duration: time.Minute, segment: time.Second, snapshotEvery: 10 * time.Second},
	"both-v1": {format: trace.FormatV1, duration: time.Minute, segment: time.Second, snapshotEvery: 10 * time.Second},
}

const (
	alertRule = "ring-hot: delta(rostracer_ring_lost_records_total) > 100"

	// session is the name rostracer gives the one session it traces.
	session = "both-run000"

	// SYN + AVP as designed: SYN's 18 vertices and 16 edges plus the 7
	// vertices (six callbacks and the fusion AND junction) and 6 edges of
	// AVP's localization pipeline.
	designVertices = apps.SYNExpectedVertices + 7
	designEdges    = apps.SYNExpectedEdges + 6
)

// args are rostracer's arguments for one session of wl traced for
// duration into the store out.
func (wl workload) args(seed uint64, duration time.Duration, out string) []string {
	format := "v2"
	if wl.format == trace.FormatV1 {
		format = "v1"
	}
	return []string{"-app", "both", "-cpus", "12", "-format", format,
		"-duration", duration.String(), "-segment", wl.segment.String(),
		"-snapshot-every", wl.snapshotEvery.String(), "-alert", alertRule,
		"-seed", fmt.Sprint(seed), "-out", out}
}
