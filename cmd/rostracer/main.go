// Command rostracer runs a built-in ROS2 application set under the eBPF
// tracers inside the simulated host and writes the collected trace to a
// trace database (Fig. 2's deployment flow).
//
// Usage:
//
//	rostracer -app avp -duration 20s -runs 3 -out ./traces [-seed 1] [-cpus 12]
//	rostracer -app syn ...
//	rostracer -app both ...
//
// Each run becomes one session in the store, drained into one segment
// per period on the shared drive loop of internal/pipeline: every period
// is -segment of virtual time, or, with -adaptive-drain, whatever the
// loop's drain scheduler plans between -segment/64 and -segment from
// the ring gauges. This command keeps only the flags, the log lines and
// the signal check. Segments are written in the indexed,
// delta-compressed v2 format by default; -format=v1 keeps the flat v1
// record stream (both read back through the same store).
//
// Persistence is hardened (see docs/RELIABILITY.md): segment-write
// failures retry with bounded backoff and rotate to fresh files, events
// spill to a bounded in-memory buffer while the disk is down, and
// auxiliary sinks (JSONL, snapshots) are fault-isolated from the trace
// store: a snapshot that cannot be written is logged, ends the cuts and
// degrades the session, and tracing goes on. Shutdown, normal or on
// SIGINT/SIGTERM, flushes the open segment and cuts a final snapshot
// when events arrived after the last cut. A session that lost events or
// needed recovery exits nonzero.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/harness"
	"github.com/tracesynth/rostracer/internal/metrics"
	"github.com/tracesynth/rostracer/internal/pipeline"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/service"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rostracer: ")

	app := flag.String("app", "avp", "application to trace: avp, syn, or both")
	duration := flag.Duration("duration", 20*time.Second, "virtual time to trace per run")
	segment := flag.Duration("segment", 5*time.Second, "virtual time per trace segment")
	runs := flag.Int("runs", 1, "number of runs (sessions)")
	out := flag.String("out", "./traces", "trace database directory")
	seed := flag.Uint64("seed", 1, "base random seed")
	cpus := flag.Int("cpus", 12, "simulated CPU count")
	jsonl := flag.Bool("jsonl", false, "additionally dump each session as JSONL")
	unfilteredKernel := flag.Bool("unfiltered-kernel", false, "disable PID filtering in the kernel tracer")
	ringCapacity := flag.Int("ring-capacity", 0, "per-CPU perf ring record bound (0 = unbounded)")
	adaptive := flag.Bool("adaptive-drain", false, "plan the drain period from per-ring pending/lost gauges instead of the fixed -segment")
	snapshotEvery := flag.Duration("snapshot-every", 0, "synthesize and write a model snapshot (JSON + DOT) every this much virtual time (0 = off)")
	spillCap := flag.Int("spill-capacity", 0, "bounded in-memory event spill while the disk is down (0 = default)")
	format := flag.String("format", "v2", "segment format: v2 (indexed, delta-compressed) or v1 (flat records)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text-format self-metrics at this address (:PORT, localhost:PORT, IPv4:PORT or [IPv6]:PORT); empty disables the endpoint")
	alertRules := metrics.DefaultAlertRules()
	alertsGiven := false
	flag.Func("alert", `alert rule "name: metric > value" (repeatable; metric{label} selects one cell, delta(metric) compares per-segment growth; added to the built-in rules)`, func(s string) error {
		r, err := metrics.ParseAlertRule(s)
		if err != nil {
			return err
		}
		alertRules = append(alertRules, r)
		alertsGiven = true
		return nil
	})
	flag.Parse()

	build, err := buildFunc(*app)
	if err != nil {
		log.Fatal(err)
	}
	store, err := trace.NewStore(*out)
	if err != nil {
		log.Fatal(err)
	}
	switch *format {
	case "v2":
		store.Format = trace.FormatV2
	case "v1":
		store.Format = trace.FormatV1
	default:
		log.Fatalf("unknown -format %q (want v1 or v2)", *format)
	}

	// Self-observability: each run folds its stream into a fresh metrics
	// registry (counters reset per session, keeping every exposed counter
	// monotone within the scrape lifetime of its registry) and publishes
	// it to the HTTP endpoint atomically, so a scrape overlapping a run
	// boundary sees either the old registry or the new one, never a mix.
	metricsOn := *metricsAddr != "" || alertsGiven
	var liveReg atomic.Pointer[metrics.Registry]
	if *metricsAddr != "" {
		bound, err := metrics.Serve(*metricsAddr, liveReg.Load)
		if err != nil {
			log.Fatalf("-metrics-addr: %v", err)
		}
		log.Printf("serving /metrics on http://%s/metrics", bound)
	}

	// Graceful shutdown: the drain loop checks this after each segment
	// and, when signalled, flushes the open segment and final snapshot
	// before exiting instead of leaving a partial session behind.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	exit := 0
	for run := 0; run < *runs; run++ {
		session := fmt.Sprintf("%s-run%03d", *app, run)
		cfg := runConfig{
			seed: *seed + uint64(run), cpus: *cpus,
			duration: sim.Duration(*duration), segment: sim.Duration(*segment),
			filtered: !*unfilteredKernel, jsonl: *jsonl, outDir: *out,
			ringCapacity: *ringCapacity, adaptive: *adaptive,
			snapshotEvery: sim.Duration(*snapshotEvery),
			spillCapacity: *spillCap,
			interrupt:     sigCh,
		}
		if metricsOn {
			cfg.alertRules = alertRules
			cfg.publishReg = liveReg.Store
		}
		degraded, interrupted, err := traceOneRun(store, session, build, cfg)
		if err != nil {
			log.Fatalf("run %d: %v", run, err)
		}
		if degraded {
			// The session completed but lost events or needed recovery:
			// say so and make the whole invocation fail loudly rather
			// than silently truncating.
			log.Printf("session %s written to %s (DEGRADED)", session, *out)
			exit = 1
		} else {
			log.Printf("session %s written to %s", session, *out)
		}
		if interrupted {
			log.Printf("interrupted: flushed session %s, skipping remaining runs", session)
			break
		}
	}
	os.Exit(exit)
}

// runConfig carries one session's tracing parameters.
type runConfig struct {
	seed          uint64
	cpus          int
	duration      sim.Duration
	segment       sim.Duration
	filtered      bool
	jsonl         bool
	outDir        string
	ringCapacity  int
	adaptive      bool
	snapshotEvery sim.Duration
	spillCapacity int
	interrupt     <-chan os.Signal

	// Self-observability (nil publishReg with nil alertRules = disabled):
	// rules evaluated once per segment, and a hook publishing the run's
	// registry to the /metrics endpoint.
	alertRules []metrics.AlertRule
	publishReg func(*metrics.Registry)
}

func buildFunc(app string) (func(*rclcpp.World), error) {
	switch app {
	case "avp":
		return func(w *rclcpp.World) { apps.BuildAVP(w, apps.AVPConfig{}) }, nil
	case "syn":
		return func(w *rclcpp.World) { apps.BuildSYN(w, apps.SYNConfig{}) }, nil
	case "both":
		return harness.BuildBoth(1), nil
	}
	return nil, fmt.Errorf("unknown app %q (want avp, syn, or both)", app)
}

func traceOneRun(store *trace.Store, session string, build func(*rclcpp.World), cfg runConfig) (degraded, interrupted bool, retErr error) {
	// The session runs on the shared drive loop (internal/pipeline):
	// each period's ring segments decode and merge directly into the
	// session writer on the store and, when asked, the JSONL sink, the
	// online synthesis service and the metrics sink, so peak memory is
	// one event per ring plus the writer's bounded replay buffer.
	//
	// Persistence goes through service.SessionWriter: write failures
	// back off and rotate to fresh segment files, and a disk that stays
	// down spills to a bounded in-memory buffer with exact drop
	// accounting. Auxiliary sinks ride an IsolatingMultiSink: a failing
	// JSONL or snapshot sink detaches with its error recorded instead of
	// killing the drain.
	writer := service.NewSessionWriter(store, session, service.Policy{
		SpillCapacity: cfg.spillCapacity,
	})
	pcfg := pipeline.Config{
		Seed: cfg.seed, CPUs: cfg.cpus, Build: build,
		UnfilteredKernel: !cfg.filtered, RingCapacity: cfg.ringCapacity,
		Duration: cfg.duration, Period: cfg.segment,
		Writer: writer, SnapshotEvery: cfg.snapshotEvery,
	}
	// With -adaptive-drain the drain scheduler plans each period from
	// the per-ring pending/lost gauges, between -segment/64 and
	// -segment; otherwise every period is the fixed -segment.
	if cfg.adaptive {
		if cfg.ringCapacity <= 0 {
			log.Printf("  warning: -adaptive-drain without -ring-capacity: unbounded rings cannot overrun, draining at the fixed -segment period")
		}
		pcfg.MinPeriod = cfg.segment / 64
	}
	// Self-observability: a per-run registry fed by a metrics sink on the
	// fan-out plus per-segment snapshots of the pipeline's own
	// accounting, with threshold alert rules evaluated each segment.
	if cfg.alertRules != nil || cfg.publishReg != nil {
		pcfg.Metrics = metrics.NewRegistry()
		pcfg.AlertRules = cfg.alertRules
	}
	s, err := pipeline.New(pcfg)
	if err != nil {
		return false, false, err
	}
	if cfg.publishReg != nil {
		cfg.publishReg(pcfg.Metrics)
	}
	if cfg.jsonl {
		jsonlPath := fmt.Sprintf("%s/%s.jsonl", cfg.outDir, session)
		f, err := os.Create(jsonlPath)
		if err != nil {
			return false, false, err
		}
		// A run that fails outright must not leave a truncated .jsonl
		// behind looking like a complete trace. (The session closes its
		// fan-out before failing, so the file is closed before removal.)
		defer func() {
			if retErr != nil {
				os.Remove(jsonlPath)
			}
		}()
		// The sink owns the file: the fan-out's Close (shutdown or
		// detach) flushes and closes it.
		s.Fanout.Add("jsonl", trace.NewJSONLSinkCloser(f))
	}
	b := s.Bundle
	rep, err := s.Run(func(win pipeline.Window) bool {
		status := ""
		if win.Segment.Down {
			status = "  [disk down: spilling]"
		}
		log.Printf("  seg %-3d t=%-12v %6d events, ring hwm cpu%d=%d, lost +%d (total %d), next period %v%s",
			win.Index, win.Elapsed, win.Segment.Persisted, win.MaxPendingCPU, win.MaxPending,
			win.LostDelta, b.Lost(), win.Next, status)
		for _, st := range win.Firing {
			if st.FiredAt == s.Alerts.Rounds() {
				log.Printf("  ALERT %s fired: %s (value %g)", st.Rule.Name, st.Rule, st.Last)
			}
		}
		// -snapshot-every: the live synthesis service folds every event
		// as it arrives; each cut is written as JSON/DOT next to the
		// segments. Snapshots are fault-isolated from the trace store: a
		// failed write degrades the session and ends the cuts, tracing
		// goes on.
		if snap := win.Snapshot; snap != nil {
			if err := writeSnapshot(cfg.outDir, session, *snap); err != nil {
				log.Printf("  WARNING: snapshot %d not written, no further snapshots: %v", snap.Seq, err)
				degraded = true
				s.StopSnapshots()
			} else {
				log.Printf("  snapshot %d at t=%v: %d vertices / %d edges from %d events (%d sched folded)",
					snap.Seq, win.Elapsed, len(snap.DAG.Vertices), len(snap.DAG.Edges()),
					snap.Events, snap.FoldedSched)
			}
		}
		// Graceful shutdown: a signal ends the session after this
		// segment, with the same flush as a normal end.
		select {
		case <-cfg.interrupt:
			interrupted = true
			return false
		default:
			return true
		}
	})
	if err != nil {
		return false, false, err
	}
	// Shutdown — signalled or normal — flushed everything still open:
	// the writer's last segment and spill, a final snapshot of the
	// events after the last cut, and the JSONL stream.
	if snap := rep.Final; snap != nil {
		if err := writeSnapshot(cfg.outDir, session, *snap); err != nil {
			log.Printf("  WARNING: final snapshot %d not written: %v", snap.Seq, err)
			degraded = true
		} else {
			log.Printf("  final snapshot %d: %d vertices from %d events",
				snap.Seq, len(snap.DAG.Vertices), snap.Events)
		}
	}
	// A fan-out close failure means some sink's output is short, so the
	// session fails loudly rather than pretending the dump is complete.
	if rep.CloseErr != nil {
		log.Printf("  sink close: %v", rep.CloseErr)
		degraded = true
	}
	stats := writer.Stats()
	if stats.Degraded() {
		degraded = true
		log.Printf("  WARNING: persistence degraded: %d/%d events dropped, %d rotations, %d retries, %d down spells (last error: %v)",
			stats.Dropped, stats.Observed, stats.Rotations, stats.Retries, stats.Down, stats.LastErr)
	}
	for _, d := range rep.Detached {
		degraded = true
		suffix := ""
		if d.CloseErr != nil {
			suffix = fmt.Sprintf(" (flush-close: %v)", d.CloseErr)
		}
		log.Printf("  WARNING: sink %q detached after %d events: %v%s", d.Name, d.Events, d.Err, suffix)
	}
	// Probe cost is a share of the traced span, so a session that traced
	// nothing (-duration 0) reports none.
	summary := fmt.Sprintf("  %d events, %.2f MB perf payload", stats.Persisted, float64(b.TraceBytes())/1e6)
	if cfg.duration > 0 {
		summary += fmt.Sprintf(", probe cost %.4f cores", s.World.Runtime().CostNs()/float64(cfg.duration))
	}
	log.Print(summary)
	// Per-CPU ring accounting, as a real perf_event_array poller reports
	// it: payload per CPU, and any overruns attributed to the ring that
	// dropped them.
	for cpu, st := range b.PerCPU() {
		if st.Bytes == 0 && st.Lost == 0 {
			continue
		}
		log.Printf("  cpu%-2d %8.3f MB, %d lost", cpu, float64(st.Bytes)/1e6, st.Lost)
	}
	if lost := b.Lost(); lost > 0 {
		log.Printf("  WARNING: %d records lost to ring overruns", lost)
	}
	if s.Alerts != nil {
		// Any rule that fired at any point, the shutdown evaluation
		// included, degrades the session into a nonzero exit.
		for _, st := range s.Alerts.Fired() {
			degraded = true
			log.Printf("  ALERT %s: %s — fired in %d of %d evaluations (first at segment %d), last value %g",
				st.Rule.Name, st.Rule, st.Count, s.Alerts.Rounds(), st.FiredAt, st.Last)
		}
	}
	return degraded, interrupted, nil
}

// writeSnapshot persists one online-synthesis snapshot as
// <session>-snap<seq>.dot and .json next to the session's segments. A
// failed write removes what it created: no partial snapshot artifact
// may be left looking complete (the segment and .jsonl cleanups'
// invariant).
func writeSnapshot(dir, session string, snap core.Snapshot) error {
	base := fmt.Sprintf("%s/%s-snap%03d", dir, session, snap.Seq)
	title := fmt.Sprintf("%s snapshot %d", session, snap.Seq)
	err := writeFile(base+".dot", func(w io.Writer) error {
		_, err := io.WriteString(w, core.ToDOT(snap.DAG, title))
		return err
	})
	if err != nil {
		return err
	}
	err = writeFile(base+".json", func(w io.Writer) error { return core.WriteJSON(w, snap.DAG) })
	if err != nil {
		os.Remove(base + ".dot")
	}
	return err
}

// writeFile creates path and fills it with write, removing the file
// again if anything after its creation fails.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}
