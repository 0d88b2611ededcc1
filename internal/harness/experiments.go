package harness

import (
	"fmt"
	"math"
	"strings"

	"github.com/tracesynth/rostracer/internal/analysis"
	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/metrics"
	"github.com/tracesynth/rostracer/internal/pipeline"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// TableIExperiment (E1) regenerates Table I: the probe inventory, with
// every program loaded through the verifier and demonstrably firing on a
// small pipeline.
func TableIExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	// An inventory only needs per-kind tallies: stream the session into a
	// counting sink, never materializing the trace.
	var kc trace.KindCounter
	_, err := RunSession(cfg.Seed, 2, 2*sim.Second, true, func(w *rclcpp.World) {
		apps.BuildSYN(w, apps.SYNConfig{})
	}, &kc)
	if err != nil {
		return Result{}, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-20s %-28s %8s  %s\n", "No.", "ROS2 lib", "Function", "events", "purpose")
	ok := true
	for _, p := range tracers.TableI {
		n := kc.Count(p.EventKind)
		if n == 0 {
			ok = false
		}
		fmt.Fprintf(&b, "%-4s %-20s %-28s %8d  %s\n", p.No, p.Lib, p.Func, n, p.Purpose)
	}
	fmt.Fprintf(&b, "%-4s %-20s %-28s %8d  %s\n", "-", "kernel", "sched_switch",
		kc.Count(trace.KindSchedSwitch), "scheduler events (PID-filtered)")
	return Result{ID: "tableI", Title: "Inserted probes in ROS2 (Table I)", Text: b.String(), OK: ok}, nil
}

// Fig3aExperiment (E2) regenerates the SYN DAG of Fig. 3a from merged
// per-run DAGs.
func Fig3aExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	dags, err := runDAGSeries(cfg, cfg.Runs, cfg.Duration, func(w *rclcpp.World, _ int) {
		apps.BuildSYN(w, apps.SYNConfig{})
	})
	if err != nil {
		return Result{}, err
	}
	d := core.MergeDAGs(dags...)
	ok := len(d.Vertices) == apps.SYNExpectedVertices && len(d.Edges()) == apps.SYNExpectedEdges

	sv3 := 0
	for _, k := range d.VertexKeys() {
		if v := d.Vertices[k]; v.Type == core.CBService && strings.Contains(k, "sv3") {
			sv3++
		}
	}
	var b strings.Builder
	b.WriteString(core.Summary(d))
	fmt.Fprintf(&b, "scenario (iv): sv3 vertices = %d (want 2)\n", sv3)
	if sv3 != 2 {
		ok = false
	}
	return Result{ID: "fig3a", Title: "SYN callbacks and precedence relations (Fig. 3a)",
		Text: b.String(), OK: ok,
		Notes: []string{core.ToDOT(d, "SYN")}}, nil
}

// Fig3bExperiment (E3) regenerates the AVP localization DAG of Fig. 3b.
func Fig3bExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	dags, err := runDAGSeries(cfg, cfg.Runs, cfg.Duration, buildAVP)
	if err != nil {
		return Result{}, err
	}
	d := core.MergeDAGs(dags...)
	// Fig. 3b: 6 callbacks in 5 nodes plus the AND junction; a single
	// linear structure with the two filter chains joining at the fusion.
	ok := len(d.Vertices) == 7 && len(d.Edges()) == 6
	var b strings.Builder
	b.WriteString(core.Summary(d))
	chains := analysis.Chains(d, 0)
	fmt.Fprintf(&b, "chains: %d (front and rear)\n", len(chains))
	if len(chains) != 2 {
		ok = false
	}
	return Result{ID: "fig3b", Title: "AVP localization DAG (Fig. 3b)", Text: b.String(), OK: ok,
		Notes: []string{core.ToDOT(d, "AVP localization")}}, nil
}

// tableIIPaper holds the paper's Table II in milliseconds for side-by-side
// reporting: {mBCET, mACET, mWCET}.
var tableIIPaper = map[string][3]float64{
	"cb1": {13.82, 17.1, 19.82},
	"cb2": {23.31, 27.07, 30.5},
	"cb3": {0.41, 3.1, 3.97},
	"cb4": {0.38, 0.62, 3.36},
	"cb5": {6.58, 8.47, 13.36},
	"cb6": {2.78, 25.64, 60.93},
}

// avpVertexFor maps Table II's rows to merged-DAG vertices.
func avpVertexFor(d *core.DAG, cb string) *core.Vertex {
	switch cb {
	case "cb1":
		return d.VertexByLabelSubstring(apps.NodeFilterRear + "|sub")
	case "cb2":
		return d.VertexByLabelSubstring(apps.NodeFilterFront + "|sub")
	case "cb3":
		return d.VertexByLabelSubstring(apps.NodeFusion + "|sub|" + apps.TopicFrontFiltered)
	case "cb4":
		return d.VertexByLabelSubstring(apps.NodeFusion + "|sub|" + apps.TopicRearFiltered)
	case "cb5":
		return d.VertexByLabelSubstring(apps.NodeVoxelGrid + "|sub")
	case "cb6":
		return d.VertexByLabelSubstring(apps.NodeLocalizer + "|sub")
	}
	return nil
}

// tableIINodeOf labels Table II rows.
var tableIINodeOf = map[string]string{
	"cb1": apps.NodeFilterRear, "cb2": apps.NodeFilterFront,
	"cb3": apps.NodeFusion, "cb4": apps.NodeFusion,
	"cb5": apps.NodeVoxelGrid, "cb6": apps.NodeLocalizer,
}

// runDAGSeries traces runs sessions of duration, run i on seed
// cfg.Seed+i with its world built by build(w, i), and returns each run's
// synthesized DAG.
func runDAGSeries(cfg Config, runs int, duration sim.Duration, build func(w *rclcpp.World, run int)) ([]*core.DAG, error) {
	return runSeries(cfg.workers, runs, func(run int) (*core.DAG, error) {
		sink := core.NewSynthesizeSink()
		if _, err := RunSession(cfg.Seed+uint64(run), cfg.CPUs, duration, true,
			func(w *rclcpp.World) { build(w, run) }, sink); err != nil {
			return nil, err
		}
		return sink.DAG(), nil
	})
}

// buildAVP builds the AVP localization pipeline alone.
func buildAVP(w *rclcpp.World, _ int) { apps.BuildAVP(w, apps.AVPConfig{}) }

// runAVPSeries runs AVP+SYN concurrently cfg.Runs times and returns the
// per-run DAGs (the experiment pipeline shared by Table II and Fig. 4).
func runAVPSeries(cfg Config) ([]*core.DAG, error) {
	return runDAGSeries(cfg, cfg.Runs, cfg.Duration, func(w *rclcpp.World, run int) {
		BuildBoth(loadScaleForRun(run))(w)
	})
}

// TableIIExperiment (E4) regenerates Table II: measured execution-time
// statistics of the six AVP callbacks over cfg.Runs runs, merged.
func TableIIExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	dags, err := runAVPSeries(cfg)
	if err != nil {
		return Result{}, err
	}
	d := core.MergeDAGs(dags...)

	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-28s %10s %10s %10s   %s\n", "CB", "Node", "mBCET", "mACET", "mWCET", "paper (B/A/W)")
	ok := true
	rows := []string{"cb1", "cb2", "cb3", "cb4", "cb5", "cb6"}
	for _, cb := range rows {
		v := avpVertexFor(d, cb)
		if v == nil {
			ok = false
			fmt.Fprintf(&b, "%-4s MISSING\n", cb)
			continue
		}
		p := tableIIPaper[cb]
		fmt.Fprintf(&b, "%-4s %-28s %10.2f %10.2f %10.2f   %.2f/%.2f/%.2f\n",
			cb, tableIINodeOf[cb],
			v.Stats.BCET().Milliseconds(), v.Stats.ACET().Milliseconds(), v.Stats.WCET().Milliseconds(),
			p[0], p[1], p[2])
		// Shape check: within a generous factor of the paper's values
		// (the substrate is a simulator; orderings matter, not decimals).
		if !within(v.Stats.ACET().Milliseconds(), p[1], 0.5) {
			ok = false
		}
	}
	// Ordering claims.
	cb2 := avpVertexFor(d, "cb2")
	cb1 := avpVertexFor(d, "cb1")
	cb6 := avpVertexFor(d, "cb6")
	if cb1 != nil && cb2 != nil && cb6 != nil {
		if !(cb2.Stats.ACET() > cb1.Stats.ACET()) {
			ok = false
		}
		if !(cb6.Stats.WCET() > cb2.Stats.WCET()) {
			ok = false
		}
	}
	return Result{ID: "tableII", Title: "Execution times of AVP callbacks (Table II)",
		Text: b.String(), OK: ok}, nil
}

func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/want <= tol
}

// Fig4Experiment (E5) regenerates Fig. 4: the evolution of cumulative
// mBCET / mACET / mWCET with the number of runs for cb1, cb2, cb5, cb6.
func Fig4Experiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	dags, err := runAVPSeries(cfg)
	if err != nil {
		return Result{}, err
	}
	cbs := []string{"cb1", "cb2", "cb5", "cb6"}
	series := make(map[string][][3]float64) // cb -> per-run {B, A, W} cumulative

	var acc *core.DAG
	for _, d := range dags {
		if acc == nil {
			acc = d
		} else {
			acc = core.MergeDAGs(acc, d)
		}
		for _, cb := range cbs {
			v := avpVertexFor(acc, cb)
			if v == nil {
				continue
			}
			series[cb] = append(series[cb], [3]float64{
				v.Stats.BCET().Milliseconds(),
				v.Stats.ACET().Milliseconds(),
				v.Stats.WCET().Milliseconds(),
			})
		}
	}

	var b strings.Builder
	b.WriteString("run")
	for _, cb := range cbs {
		fmt.Fprintf(&b, ",%s_mBCET,%s_mACET,%s_mWCET", cb, cb, cb)
	}
	b.WriteString("\n")
	for run := 0; run < cfg.Runs; run++ {
		fmt.Fprintf(&b, "%d", run+1)
		for _, cb := range cbs {
			s := series[cb]
			if run < len(s) {
				fmt.Fprintf(&b, ",%.2f,%.2f,%.2f", s[run][0], s[run][1], s[run][2])
			} else {
				b.WriteString(",,,")
			}
		}
		b.WriteString("\n")
	}

	// Shape checks: mWCET non-decreasing and growing then plateauing;
	// mACET stabilizes (last-quarter drift small); mBCET non-increasing.
	ok := true
	var notes []string
	for _, cb := range cbs {
		s := series[cb]
		if len(s) < 2 {
			ok = false
			continue
		}
		for i := 1; i < len(s); i++ {
			if s[i][2] < s[i-1][2]-1e-9 {
				ok = false
				notes = append(notes, fmt.Sprintf("%s mWCET decreased at run %d", cb, i+1))
			}
			if s[i][0] > s[i-1][0]+1e-9 {
				ok = false
				notes = append(notes, fmt.Sprintf("%s mBCET increased at run %d", cb, i+1))
			}
		}
		growth := (s[len(s)-1][2] - s[0][2]) / s[0][2]
		notes = append(notes, fmt.Sprintf("%s mWCET grew %.1f%% from run 1 to run %d", cb, 100*growth, len(s)))
		// mACET drift across the last quarter must be small (<5%).
		q := 3 * len(s) / 4
		drift := math.Abs(s[len(s)-1][1]-s[q][1]) / s[q][1]
		if drift > 0.05 {
			ok = false
			notes = append(notes, fmt.Sprintf("%s mACET still drifting %.1f%% in final quarter", cb, 100*drift))
		}
	}
	return Result{ID: "fig4", Title: "Timing attributes improve with more traces (Fig. 4)",
		Text: b.String(), OK: ok, Notes: notes}, nil
}

// OverheadsExperiment (E6) regenerates the Sec. VI tracing-overheads
// paragraph: trace volume for 60 s of SYN+AVP, probe CPU share relative
// to application load, and the kernel-event filtering reduction.
func OverheadsExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	duration := 60 * sim.Second

	buildBusyHost := func(w *rclcpp.World) {
		BuildBoth(1)(w)
		// A busy host: untraced processes whose switches the filtered
		// kernel tracer must drop.
		SpawnChatter(w, 24, 2*sim.Millisecond)
	}
	// Intern-table traffic bracket: the counters are process-global, so
	// only the delta over this experiment is attributable to it. A capped
	// delta means name decoding fell back to per-record allocation — the
	// first place to look when the drain's allocation profile regresses.
	// The bracket runs through the exported gauges and the default
	// intern-capped-growth delta rule, so the experiment exercises the
	// same alert an operator would see on /metrics.
	hits0, misses0, _ := trace.InternStats()
	ireg := metrics.NewRegistry()
	ipm := metrics.NewPipelineMetrics(ireg)
	ialerts := metrics.NewAlerts(ireg, metrics.DefaultAlertRules())
	ipm.UpdateIntern()
	ialerts.Evaluate() // baseline round for the delta rules

	// The filtered and unfiltered sessions are independent worlds with the
	// same seed; run them as a two-run series so they fan out too. Only
	// volume and cost counters matter here, so the traces stream into
	// counting sinks and are never held.
	sessions, err := runSeries(cfg.workers, 2, func(run int) (*pipeline.Session, error) {
		var kc trace.KindCounter
		return RunSession(cfg.Seed, cfg.CPUs, duration, run == 0, buildBusyHost, &kc)
	})
	if err != nil {
		return Result{}, err
	}
	filtered, unfiltered := sessions[0], sessions[1]
	filteredBytes, unfilteredBytes := filtered.Bundle.TraceBytes(), unfiltered.Bundle.TraceBytes()

	probeCores := filtered.World.Runtime().CostNs() / float64(duration)
	var appCPUNs float64
	for _, th := range filtered.World.Machine().Threads() {
		appCPUNs += float64(th.CPUTime())
	}
	appCores := appCPUNs / float64(duration)

	// Sec. II-B comparison: the same workload, user-space function tracing
	// only (no kernel tracer), through eBPF uprobes vs CARET-style
	// LD_PRELOAD redirection.
	ebpfPerEvent, redirPerEvent, err := runRedirectBaseline(cfg, duration)
	if err != nil {
		return Result{}, err
	}
	share := 0.0
	if appCores > 0 {
		share = probeCores / appCores
	}
	reduction := float64(unfilteredBytes) / float64(filteredBytes)

	var b strings.Builder
	fmt.Fprintf(&b, "traced span: %v of SYN + AVP localization (paper: 60 s)\n", duration)
	fmt.Fprintf(&b, "trace volume (filtered kernel): %.2f MB (paper: 9 MB)\n",
		float64(filteredBytes)/1e6)
	fmt.Fprintf(&b, "probe cost: %.4f CPU cores (paper: 0.008 cores)\n", probeCores)
	fmt.Fprintf(&b, "application load: %.3f cores; probe share = %.2f%% of app load (paper: 0.3%%)\n",
		appCores, 100*share)
	fmt.Fprintf(&b, "trace volume, unfiltered kernel events: %.2f MB -> filtering reduces total %.1fx\n",
		float64(unfilteredBytes)/1e6, reduction)
	fmt.Fprintf(&b, "user-space tracing cost per event (Sec. II-B): eBPF uprobes %.0f ns vs LD_PRELOAD redirection %.0f ns (%.1fx)\n",
		ebpfPerEvent, redirPerEvent, redirPerEvent/ebpfPerEvent)

	ok := share < 0.05 && reduction > 3 && filteredBytes > 0 &&
		redirPerEvent > ebpfPerEvent

	// Unbounded rings must not have dropped anything. Healthy sessions
	// add no note, so the figure text stays byte-identical.
	var notes []string
	for _, s := range sessions {
		if lost := s.Bundle.Lost(); lost > 0 {
			ok = false
			notes = append(notes, fmt.Sprintf("%d records lost on unbounded rings", lost))
		}
	}
	// Interning must have absorbed the name decoding: any capped lookup
	// re-paid a per-record allocation on the drain path. The check is the
	// default intern-capped-growth alert evaluated over the exported
	// gauges. Healthy runs add no note (the counters land in Notes, not
	// Text, because they are process-global and would break figure-text
	// byte equivalence).
	ipm.UpdateIntern()
	ialerts.Evaluate()
	for _, st := range ialerts.Fired() {
		if st.Rule.Name != "intern-capped-growth" {
			continue // other defaults have no sources wired here
		}
		hits1, misses1, _ := trace.InternStats()
		ok = false
		notes = append(notes, fmt.Sprintf(
			"ALERT %s: %.0f lookups fell back to allocation (hits +%d, misses +%d) — drain B/op is regressing here",
			st.Rule.Name, st.Last, hits1-hits0, misses1-misses0))
	}
	return Result{ID: "overheads", Title: "Tracing overheads (Sec. VI)", Text: b.String(), OK: ok, Notes: notes}, nil
}

// runRedirectBaseline traces the same SYN+AVP workload twice with only
// user-space function tracing — once through the eBPF ROS2-RT probes,
// once through the redirection shim — and returns the per-event costs.
func runRedirectBaseline(cfg Config, duration sim.Duration) (ebpfPerEvent, redirPerEvent float64, err error) {
	// eBPF, ROS2-RT only (no kernel tracer).
	we := rclcpp.NewWorld(rclcpp.Config{NumCPUs: cfg.CPUs, Seed: cfg.Seed})
	be, err := tracers.NewBundle(we.Runtime())
	if err != nil {
		return 0, 0, err
	}
	if err := be.StartRT(); err != nil {
		return 0, 0, err
	}
	BuildBoth(1)(we)
	we.Run(duration)
	var kc trace.KindCounter
	if err := be.StreamTo(&kc); err != nil {
		return 0, 0, err
	}
	if kc.Total() > 0 {
		ebpfPerEvent = we.Runtime().CostNs() / float64(kc.Total())
	}

	// LD_PRELOAD redirection.
	wr := rclcpp.NewWorld(rclcpp.Config{NumCPUs: cfg.CPUs, Seed: cfg.Seed})
	var rc trace.KindCounter
	redirect := tracers.NewRedirectTracer(wr.Runtime(), &rc)
	redirect.Start()
	BuildBoth(1)(wr)
	wr.Run(duration)
	if n := rc.Total(); n > 0 {
		redirPerEvent = redirect.CostNs() / float64(n)
	}
	return ebpfPerEvent, redirPerEvent, nil
}

// Fig2Experiment (E7) exercises the deployment strategies of Fig. 2:
// segmented sessions, merge-traces-then-synthesize vs
// synthesize-then-merge-DAGs, and multi-mode models.
func Fig2Experiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	var b strings.Builder
	ok := true

	// (a) Segmented collection: one long run drained in 4 segments equals
	// one drain at the end. The segmented side runs the production
	// streaming shape — every periodic drain feeds the same incremental
	// synthesis sink, and no segment (let alone the merged trace) is ever
	// materialized.
	quarter := cfg.Duration / 4
	seg, err := pipeline.New(pipeline.Config{
		Seed: cfg.Seed, CPUs: cfg.CPUs,
		Build:    func(w *rclcpp.World) { apps.BuildAVP(w, apps.AVPConfig{}) },
		Duration: 4 * quarter, Period: quarter,
	})
	if err != nil {
		return Result{}, err
	}
	segSink := core.NewSynthesizeSink()
	seg.Fanout.Add("synthesis", segSink)
	if _, err := seg.Run(nil); err != nil {
		return Result{}, err
	}
	dSeg := segSink.DAG()
	wholeSink := core.NewSynthesizeSink()
	if _, err := RunSession(cfg.Seed, cfg.CPUs, cfg.Duration, true, func(w *rclcpp.World) {
		apps.BuildAVP(w, apps.AVPConfig{})
	}, wholeSink); err != nil {
		return Result{}, err
	}
	dWhole := wholeSink.DAG()
	segOK := len(dSeg.Vertices) == len(dWhole.Vertices) && len(dSeg.Edges()) == len(dWhole.Edges())
	fmt.Fprintf(&b, "segmented sessions: %d vertices / %d edges vs whole-run %d / %d -> %v\n",
		len(dSeg.Vertices), len(dSeg.Edges()), len(dWhole.Vertices), len(dWhole.Edges()), segOK)
	ok = ok && segOK

	// (b) Merge strategies: per-run DAGs merged vs per-run synthesis (the
	// strategies coincide per run; across runs the DAG-merge path is the
	// paper's choice). Statistics must be identical either way.
	perRun, err := runDAGSeries(cfg, min(cfg.Runs, 5), cfg.Duration/2, buildAVP)
	if err != nil {
		return Result{}, err
	}
	merged := core.MergeDAGs(perRun...)
	sumInstances := 0
	for _, k := range merged.VertexKeys() {
		sumInstances += merged.Vertices[k].Stats.Count
	}
	perRunSum := 0
	for _, d := range perRun {
		for _, k := range d.VertexKeys() {
			perRunSum += d.Vertices[k].Stats.Count
		}
	}
	mergeOK := sumInstances == perRunSum && len(merged.Vertices) == len(perRun[0].Vertices)
	fmt.Fprintf(&b, "DAG merge preserves instances: %d == %d -> %v\n", sumInstances, perRunSum, mergeOK)
	ok = ok && mergeOK

	// (c) Multi-mode: a degraded mode (front LIDAR absent) yields a
	// different DAG; per-mode merging keeps them apart.
	mm := core.NewMultiModeDAG()
	mm.Add("nominal", dWhole)
	degraded := core.NewSynthesizeSink()
	if _, err := RunSession(cfg.Seed+99, cfg.CPUs, cfg.Duration, true, buildAVPDegraded, degraded); err != nil {
		return Result{}, err
	}
	mm.Add("front-lidar-failed", degraded.DAG())
	nomV := len(mm.Modes["nominal"].Vertices)
	degV := len(mm.Modes["front-lidar-failed"].Vertices)
	modeOK := nomV == 7 && degV < nomV
	fmt.Fprintf(&b, "multi-mode: nominal %d vertices, degraded %d -> %v\n", nomV, degV, modeOK)
	ok = ok && modeOK

	return Result{ID: "fig2", Title: "Deployment & trace-processing strategies (Fig. 2)",
		Text: b.String(), OK: ok}, nil
}

// buildAVPDegraded is AVP with the front LIDAR silent: the fusion never
// completes, so downstream callbacks never run — a distinct operating
// mode, as in Fig. 2's per-scenario merging.
func buildAVPDegraded(w *rclcpp.World) {
	apps.BuildAVP(w, apps.AVPConfig{NoFrontSensor: true})
}

// AblationServiceExperiment (E8): spurious chains of the naive
// single-vertex service model vs the paper's per-caller split.
func AblationServiceExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	mb := core.NewModelBuilder()
	_, err := RunSession(cfg.Seed, cfg.CPUs, cfg.Duration, true, func(w *rclcpp.World) {
		apps.BuildSYN(w, apps.SYNConfig{})
	}, mb)
	if err != nil {
		return Result{}, err
	}
	m := mb.Finish()
	proper := core.BuildDAG(m)
	naive := core.BuildDAGNaive(m)
	nSpur, spurious := analysis.SpuriousChains(proper, naive)

	var b strings.Builder
	fmt.Fprintf(&b, "chains (split model):  %d\n", len(analysis.Chains(proper, 0)))
	fmt.Fprintf(&b, "chains (naive model):  %d\n", len(analysis.Chains(naive, 0)))
	fmt.Fprintf(&b, "spurious chains introduced by the naive model: %d\n", nSpur)
	for i, c := range spurious {
		if i >= 4 {
			fmt.Fprintf(&b, "  ... (%d more)\n", nSpur-4)
			break
		}
		fmt.Fprintf(&b, "  spurious: %s\n", c)
	}
	return Result{ID: "ablation-service", Title: "Service modeling ablation (Sec. I example)",
		Text: b.String(), OK: nSpur > 0}, nil
}

// AblationSyncExperiment (E9): with the AND junction removed, the fusion
// output looks like an OR junction downstream — the wrong triggering
// semantics for sensor fusion.
func AblationSyncExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	// Merge several runs so both sync callbacks have completed sets at
	// least once (arrival order varies with the load).
	models, err := runSeries(cfg.workers, min(cfg.Runs, 10), func(run int) (*core.Model, error) {
		mb := core.NewModelBuilder()
		if _, err := RunSession(cfg.Seed+uint64(run), cfg.CPUs, cfg.Duration, true,
			BuildBoth(loadScaleForRun(run)), mb); err != nil {
			return nil, err
		}
		return mb.Finish(), nil
	})
	if err != nil {
		return Result{}, err
	}

	var properDAGs, naiveDAGs []*core.DAG
	for _, m := range models {
		properDAGs = append(properDAGs, core.BuildDAG(m))
		// Naive: ignore the sync markers entirely.
		clone := &core.Model{NodeOf: m.NodeOf}
		for _, cb := range m.Callbacks {
			c := *cb
			c.IsSync = false
			clone.Callbacks = append(clone.Callbacks, &c)
		}
		naiveDAGs = append(naiveDAGs, core.BuildDAG(clone))
	}
	proper := core.MergeDAGs(properDAGs...)
	naive := core.MergeDAGs(naiveDAGs...)

	var b strings.Builder
	andCount, naiveAnd := 0, 0
	for _, k := range proper.VertexKeys() {
		if proper.Vertices[k].IsAnd {
			andCount++
		}
	}
	for _, k := range naive.VertexKeys() {
		if naive.Vertices[k].IsAnd {
			naiveAnd++
		}
	}
	fmt.Fprintf(&b, "split model: %d AND junction(s); naive model: %d\n", andCount, naiveAnd)

	// In the proper model the voxel grid's input edge comes from the AND
	// junction (fires only on complete fusion sets); in the naive model it
	// comes directly from a synchronization callback, losing the
	// and-semantics (and looking like an OR junction whenever both inputs
	// happen to complete sets across runs).
	properVoxel := proper.VertexByLabelSubstring(apps.NodeVoxelGrid + "|sub")
	naiveVoxel := naive.VertexByLabelSubstring(apps.NodeVoxelGrid + "|sub")
	properFromAnd, naiveFromSync := false, false
	if properVoxel != nil {
		for _, e := range proper.InEdges(properVoxel.Key) {
			if proper.Vertices[e.From].IsAnd {
				properFromAnd = true
			}
		}
	}
	if naiveVoxel != nil {
		for _, e := range naive.InEdges(naiveVoxel.Key) {
			from := naive.Vertices[e.From]
			if !from.IsAnd && from.Node == apps.NodeFusion && from.Type == core.CBSubscriber {
				naiveFromSync = true
			}
		}
		fmt.Fprintf(&b, "naive voxel-grid in-edges: %d (OR-marked: %v)\n",
			len(naive.InEdges(naiveVoxel.Key)), naiveVoxel.OrJunction)
	}
	fmt.Fprintf(&b, "proper: voxel fed by AND junction = %v; naive: fed directly by sync CB = %v\n",
		properFromAnd, naiveFromSync)
	ok := andCount == 2 && naiveAnd == 0 && properFromAnd && naiveFromSync
	return Result{ID: "ablation-sync", Title: "Synchronization modeling ablation (Sec. IV)",
		Text: b.String(), OK: ok}, nil
}

// ValidationExperiment (E10) reproduces the paper's measurement
// validation: SYN's constant designed loads are recovered exactly from
// traces for every instance, across varying interference.
func ValidationExperiment(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	var b strings.Builder
	ok := true
	totalInstances := 0
	var maxErr sim.Duration
	var maxInflation float64

	type runCheck struct {
		instances    int
		maxErr       sim.Duration
		maxInflation float64
		exact        bool
	}
	checks, err := runSeries(cfg.workers, min(cfg.Runs, 10), func(run int) (runCheck, error) {
		scale := loadScaleForRun(run)
		mb := core.NewModelBuilder()
		_, err := RunSession(cfg.Seed+uint64(run), 1 /* one CPU forces preemption */, cfg.Duration, true,
			func(w *rclcpp.World) {
				apps.BuildSYN(w, apps.SYNConfig{LoadScale: scale, Prio: 3})
				apps.BackgroundLoad(w, 2, 8, 0, 10*sim.Millisecond, 2*sim.Millisecond)
			}, mb)
		if err != nil {
			return runCheck{}, err
		}
		m := mb.Finish()
		designed := map[string]sim.Duration{}
		for name, d := range apps.SYNDesignedET {
			designed[name] = sim.Duration(float64(d) * scale)
		}
		c := runCheck{exact: true}
		for _, cb := range m.Callbacks {
			if strings.HasPrefix(cb.Node, "bg_load") {
				continue
			}
			want, known := designedFor(cb, designed)
			if !known {
				continue
			}
			for _, inst := range cb.Instances {
				c.instances++
				diff := inst.ET - want
				if diff < 0 {
					diff = -diff
				}
				if diff > c.maxErr {
					c.maxErr = diff
				}
				if diff != 0 {
					c.exact = false
				}
				if want > 0 {
					infl := float64(inst.End.Sub(inst.Start)) / float64(want)
					if infl > c.maxInflation {
						c.maxInflation = infl
					}
				}
			}
		}
		return c, nil
	})
	if err != nil {
		return Result{}, err
	}
	for _, c := range checks {
		totalInstances += c.instances
		if c.maxErr > maxErr {
			maxErr = c.maxErr
		}
		if c.maxInflation > maxInflation {
			maxInflation = c.maxInflation
		}
		ok = ok && c.exact
	}
	fmt.Fprintf(&b, "instances checked: %d\n", totalInstances)
	fmt.Fprintf(&b, "max |measured - designed| = %v (paper: exact agreement validates the framework)\n", maxErr)
	fmt.Fprintf(&b, "max wall-window inflation from preemption = %.2fx (Alg. 2 removes it)\n", maxInflation)
	if totalInstances == 0 {
		ok = false
	}
	if maxInflation <= 1.0 {
		ok = false // no preemption happened; the experiment lost its point
	}
	return Result{ID: "validation", Title: "Measurement validation under interference (Sec. VI)",
		Text: b.String(), OK: ok}, nil
}

// designedFor matches an extracted SYN callback to its designed load.
func designedFor(cb *core.Callback, designed map[string]sim.Duration) (sim.Duration, bool) {
	in := cb.InTopic
	base := in
	if i := strings.LastIndexByte(base, '#'); i >= 0 {
		base = base[:i]
	}
	switch {
	case cb.Type == core.CBTimer && cb.Node == "syn_node1":
		return designed["T1"], true
	case cb.Type == core.CBSubscriber && base == "/t1":
		return designed["SC1"], true
	case cb.Type == core.CBSubscriber && base == "/t3":
		return designed["SC3"], true
	case cb.Type == core.CBService && base == "rq/sv1Request":
		return designed["SV1"], true
	case cb.Type == core.CBService && base == "rq/sv2Request":
		return designed["SV2"], true
	case cb.Type == core.CBService && base == "rq/sv3Request":
		return designed["SV3"], true
	case cb.Type == core.CBClient && base == "rr/sv1Reply":
		return designed["CL1"], true
	case cb.Type == core.CBClient && base == "rr/sv2Reply":
		return designed["CL2"], true
	}
	// Sync subscribers and timers T2/T3 have context-dependent or
	// ambiguous designed values; skip them here.
	return 0, false
}
