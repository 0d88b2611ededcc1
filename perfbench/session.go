package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/harness"
	rmetrics "github.com/tracesynth/rostracer/internal/metrics"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/service"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// Stages of the per-layer ledger, in pipeline order. Together they cover a
// whole session: boot, the live drain loop, and the offline disk-to-model
// replay.
const (
	stSetup     = iota // world boot, probe load and attach, application build, sinks
	stSim              // sim.Engine advance: scheduler, executor, DDS, probe fires, ring emit
	stDrain            // per-CPU ring decode and merge
	stStore            // session writer: segment encode and write, close
	stMetrics          // metrics sink, pipeline gauges, alert rules
	stSnapshot         // live synthesis: fold, snapshot cuts and their JSON/DOT files
	stReadSynth        // offline: store segment decode and merge streamed into the Algorithm 1/2 fold
	stDAG              // offline: model finish and DAG build
	numStages
)

var stageNames = [numStages]string{"setup", "sim", "drain", "store", "metrics", "snapshot", "read_synth", "dag"}

// sample is what one session measured.
type sample struct {
	events uint64
	// CPU times of the processes: rostracer tracing nothing, rostracer
	// tracing the session, and modelsynth rebuilding its model from disk.
	setup, trace, model time.Duration

	// The per-layer ledger, which only traced sessions fill in.
	stages                        [numStages]time.Duration
	simSteps, switches, probeRuns uint64
	ringBytes, storeBytes         uint64
	backlog                       int
	allocs, allocBytes, gcs       uint64
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func heapCounters() (allocs, bytes, gcs uint64) {
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64(), heapSamples[2].Value.Uint64()
}

// tracedSession runs one session of wl in this process, stage by stage,
// to attribute its cost to the layers. It replicates what rostracer and
// modelsynth do for the workload's flags, without their process start,
// flag parsing and per-segment log lines. To time the drain apart from
// the sinks, each period is drained into buf first and then fed to one
// sink at a time; buf is reused, so once grown it adds no allocation.
// The offline stage streams the store into the synthesis sink as
// modelsynth does.
func tracedSession(wl workload, seed uint64, dir string, buf *trace.Collector) (s sample, err error) {
	a0, b0, g0 := heapCounters()
	clock := time.Now()
	mark := func(stage int) {
		now := time.Now()
		s.stages[stage] += now.Sub(clock)
		clock = now
	}

	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 12, Seed: seed})
	b, err := tracers.NewBundle(w.Runtime())
	if err != nil {
		return s, err
	}
	tracers.BridgeSched(w.Machine(), w.Runtime())
	for _, attach := range []func() error{b.StartInit, b.StartRT, func() error { return b.StartKernel(true) }} {
		if err := attach(); err != nil {
			return s, err
		}
	}
	harness.BuildBoth(1)(w)
	b.StopInit()
	store, err := trace.NewStore(dir)
	if err != nil {
		return s, err
	}
	defer os.RemoveAll(dir)
	store.Format = wl.format
	writer := service.NewSessionWriter(store, session, service.Policy{})
	rule, err := rmetrics.ParseAlertRule(alertRule)
	if err != nil {
		return s, err
	}
	reg := rmetrics.NewRegistry()
	msink := rmetrics.NewSink(reg)
	pm := rmetrics.NewPipelineMetrics(reg)
	alerts := rmetrics.NewAlerts(reg, append(rmetrics.DefaultAlertRules(), rule))
	snap := core.NewSnapshotService()
	fan := trace.NewIsolatingMultiSink()
	fan.Add("store", writer)
	fan.Add("snapshot", snap)
	fan.Add("metrics", msink)
	defer fan.Close()
	mark(stSetup)

	sinks := []trace.Sink{writer, snap, msink}
	sinkStages := []int{stStore, stSnapshot, stMetrics}
	length, segment, every := sim.Duration(wl.duration), sim.Duration(wl.segment), sim.Duration(wl.snapshotEvery)
	var last core.Snapshot
	nextSnap := every
	drains := 0
	for elapsed := sim.Duration(0); elapsed < length; {
		step := min(segment, length-elapsed)
		w.Run(step)
		elapsed += step
		mark(stSim)
		if p, _ := b.MaxRingPending(); p > s.backlog {
			s.backlog = p
		}
		writer.BeginSegment()
		buf.Trace.Events = buf.Trace.Events[:0]
		if err := b.StreamTo(buf); err != nil {
			return s, fmt.Errorf("drain: %w", err)
		}
		mark(stDrain)
		for i, sk := range sinks {
			for _, e := range buf.Trace.Events {
				sk.Observe(e)
			}
			mark(sinkStages[i])
		}
		writer.EndSegment()
		mark(stStore)
		drains++
		pm.UpdateBundle(b)
		pm.UpdateDrain(int64(step), drains, 0)
		pm.UpdateWriter(writer)
		pm.UpdateIntern()
		pm.UpdateSinks(fan)
		pm.UpdateSynthesis(snap)
		alerts.Evaluate()
		mark(stMetrics)
		if elapsed >= nextSnap {
			last = snap.Snapshot()
			if err := writeSnapshot(dir, last); err != nil {
				return s, err
			}
			nextSnap += every
		}
		mark(stSnapshot)
	}
	writer.Close()
	closeErr := fan.Close()
	mark(stStore)

	synth := core.NewSynthesizeSink()
	var span trace.SpanTracker
	if err := store.StreamSession(session, trace.MultiSink(synth, &span)); err != nil {
		return s, fmt.Errorf("reading the stored session: %w", err)
	}
	mark(stReadSynth)
	d := synth.DAG()
	mark(stDAG)
	a1, b1, g1 := heapCounters()
	s.allocs, s.allocBytes, s.gcs = a1-a0, b1-b0, g1-g0

	st := writer.Stats()
	s.events = st.Persisted
	switch {
	case closeErr != nil || len(fan.Detached()) > 0:
		return s, fmt.Errorf("%w: sink fan-out lost a sink: %v %v", errWrong, closeErr, fan.Detached())
	case st.Observed != st.Persisted || st.Dropped > 0 || b.Lost() > 0 || st.Persisted == 0:
		return s, fmt.Errorf("%w: ledger: %d drained, %d persisted, %d dropped, %d ring-lost",
			errWrong, st.Observed, st.Persisted, st.Dropped, b.Lost())
	case msink.Events() != st.Observed || snap.EventsObserved() != st.Observed || uint64(span.Total()) != st.Persisted:
		return s, fmt.Errorf("%w: sinks disagree: store %d, metrics %d, snapshot %d, read back %d",
			errWrong, st.Observed, msink.Events(), snap.EventsObserved(), span.Total())
	case len(alerts.Fired()) > 0:
		return s, fmt.Errorf("%w: alert %s fired on a healthy session", errWrong, alerts.Fired()[0].Rule)
	case last.Events != st.Observed || core.ToDOT(last.DAG, "") != core.ToDOT(d, ""):
		return s, fmt.Errorf("%w: live snapshot DAG differs from the DAG synthesized from disk", errWrong)
	case len(d.Vertices) != designVertices || len(d.Edges()) != designEdges:
		return s, fmt.Errorf("%w: DAG has %d vertices / %d edges, designed %d / %d",
			errWrong, len(d.Vertices), len(d.Edges()), designVertices, designEdges)
	}

	s.simSteps = w.Engine().Executed()
	s.switches = w.Machine().Switches()
	s.probeRuns = w.Runtime().Stats().Runs
	s.ringBytes = b.TraceBytes()
	// Bytes on disk: the segments and the snapshot files.
	err = filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err == nil {
			s.storeBytes += uint64(info.Size())
		}
		return err
	})
	return s, err
}

// writeSnapshot writes a live snapshot as JSON and DOT next to the
// segments, as rostracer -snapshot-every does.
func writeSnapshot(dir string, snap core.Snapshot) error {
	base := filepath.Join(dir, fmt.Sprintf("%s-snap%03d", session, snap.Seq))
	if err := os.WriteFile(base+".dot", []byte(core.ToDOT(snap.DAG, session)), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".json")
	if err != nil {
		return err
	}
	if err := core.WriteJSON(f, snap.DAG); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
