// Package rostracer_bench benchmarks the full reproduction pipeline: one
// benchmark per paper artifact (Table I, Table II, Fig. 2, Fig. 3a,
// Fig. 3b, Fig. 4, overheads, ablations, validation) plus microbenchmarks
// of the substrates the artifacts rest on (eBPF dispatch, Algorithms 1/2,
// DAG synthesis and merge).
//
// Run with: go test -bench=. -benchmem
package rostracer_bench

import (
	"fmt"
	"sort"
	"testing"

	"github.com/tracesynth/rostracer/internal/apps"
	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/harness"
	"github.com/tracesynth/rostracer/internal/metrics"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sched"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/tracers"
)

// benchCfg scales experiments so one iteration stays in the tens of
// milliseconds; the experiment *structure* is identical to paper scale.
func benchCfg() harness.Config {
	return harness.Config{Runs: 2, Duration: 4 * sim.Second, CPUs: 8, Seed: 9}
}

func runExperiment(b *testing.B, f func(harness.Config) (harness.Result, error), cfg harness.Config) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(9 + i)
		r, err := f(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !r.OK {
			b.Fatalf("experiment shape mismatch:\n%s", r.Text)
		}
	}
}

// BenchmarkTableI_ProbeInventory regenerates Table I (E1).
func BenchmarkTableI_ProbeInventory(b *testing.B) {
	runExperiment(b, harness.TableIExperiment, benchCfg())
}

// BenchmarkFig3a_SYNSynthesis regenerates Fig. 3a (E2).
func BenchmarkFig3a_SYNSynthesis(b *testing.B) {
	cfg := benchCfg()
	cfg.Duration = 8 * sim.Second
	runExperiment(b, harness.Fig3aExperiment, cfg)
}

// BenchmarkFig3b_AVPSynthesis regenerates Fig. 3b (E3).
func BenchmarkFig3b_AVPSynthesis(b *testing.B) {
	cfg := benchCfg()
	cfg.Duration = 8 * sim.Second
	runExperiment(b, harness.Fig3bExperiment, cfg)
}

// BenchmarkTableII_AVPStats regenerates Table II (E4).
func BenchmarkTableII_AVPStats(b *testing.B) {
	cfg := benchCfg()
	cfg.Runs = 4
	cfg.Duration = 15 * sim.Second
	cfg.CPUs = 12
	runExperiment(b, harness.TableIIExperiment, cfg)
}

// BenchmarkFig4_Convergence regenerates Fig. 4 (E5).
func BenchmarkFig4_Convergence(b *testing.B) {
	cfg := benchCfg()
	cfg.Runs = 6
	cfg.Duration = 10 * sim.Second
	cfg.CPUs = 12
	runExperiment(b, harness.Fig4Experiment, cfg)
}

// BenchmarkOverheads_Tracing regenerates the Sec. VI overheads (E6).
func BenchmarkOverheads_Tracing(b *testing.B) {
	runExperiment(b, harness.OverheadsExperiment, benchCfg())
}

// BenchmarkFig2_MergeStrategies regenerates the Fig. 2 strategies (E7).
func BenchmarkFig2_MergeStrategies(b *testing.B) {
	runExperiment(b, harness.Fig2Experiment, benchCfg())
}

// BenchmarkAblationService regenerates the service-splitting ablation (E8).
func BenchmarkAblationService(b *testing.B) {
	cfg := benchCfg()
	cfg.Duration = 8 * sim.Second
	runExperiment(b, harness.AblationServiceExperiment, cfg)
}

// BenchmarkAblationSync regenerates the synchronization ablation (E9).
func BenchmarkAblationSync(b *testing.B) {
	cfg := benchCfg()
	cfg.Runs = 6
	cfg.Duration = 6 * sim.Second
	cfg.CPUs = 12
	runExperiment(b, harness.AblationSyncExperiment, cfg)
}

// BenchmarkValidation_MeasuredVsDesigned regenerates E10.
func BenchmarkValidation_MeasuredVsDesigned(b *testing.B) {
	cfg := benchCfg()
	cfg.Runs = 2
	cfg.Duration = 4 * sim.Second
	runExperiment(b, harness.ValidationExperiment, cfg)
}

// --- substrate microbenchmarks ---

// avpTrace collects one (Time, Seq)-ordered AVP trace for the synthesis
// microbenches.
func avpTrace(b *testing.B, seconds sim.Duration) *trace.Trace {
	b.Helper()
	var col trace.Collector
	if _, err := harness.RunSession(5, 8, seconds, true, func(w *rclcpp.World) {
		apps.BuildAVP(w, apps.AVPConfig{})
	}, &col); err != nil {
		b.Fatal(err)
	}
	return &col.Trace
}

// BenchmarkSimulation_AVPSecond measures simulating + tracing one virtual
// second of the AVP pipeline, the drained stream counted and dropped.
func BenchmarkSimulation_AVPSecond(b *testing.B) {
	b.ReportAllocs()
	var kc trace.KindCounter
	for i := 0; i < b.N; i++ {
		_, err := harness.RunSession(uint64(i), 8, sim.Second, true, func(w *rclcpp.World) {
			apps.BuildAVP(w, apps.AVPConfig{})
		}, &kc)
		if err != nil {
			b.Fatal(err)
		}
	}
	if kc.Total() == 0 {
		b.Fatal("no events traced")
	}
}

// BenchmarkSimulation_BothSecond measures the steady state of a traced
// session: one virtual second of SYN+AVP on 12 CPUs, the rings drained
// into a counting sink. The world, the probe programs and the
// applications are built and warmed for one second outside the timer,
// so allocs/op is the per-message path (one Sample per DDS write) and
// not program load or first-second growth.
func BenchmarkSimulation_BothSecond(b *testing.B) {
	w, bd := benchTracedWorld(b, 12)
	var kc trace.KindCounter
	w.Run(sim.Second)
	if err := bd.StreamTo(&kc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(sim.Second)
		if err := bd.StreamTo(&kc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(kc.Total())/float64(b.N), "events/op")
}

// BenchmarkSched_Reschedule measures the simulated scheduler's decisions
// on the thread mix of `rostracer -app both` (SYN + AVP) on 12 CPUs:
// each iteration wakes every thread, then runs
// the machine until each has computed its burst and blocked again — one
// decision per wake and one per block. No tracer is attached, so the
// figure is the scheduler and the event queue alone; it must stay
// allocation-free.
func BenchmarkSched_Reschedule(b *testing.B) {
	const cpus = 12
	// harness.BuildBoth's node threads in spawn order: five AVP nodes at
	// priority 5, then five SYN nodes at priority 7, every CPU allowed.
	mix := []int{5, 5, 5, 5, 5, 7, 7, 7, 7, 7}

	eng := sim.NewEngine()
	m := sched.NewMachine(eng, cpus)
	pids := make([]sched.PID, len(mix))
	for i, prio := range mix {
		burst := sim.Duration(40+17*i) * sim.Microsecond
		computing := false
		t := m.Spawn(fmt.Sprint("node", i), prio, sched.AffinityAll, sched.ProcFunc(func(*sched.Machine) sched.Demand {
			computing = !computing
			if computing {
				return sched.Block()
			}
			return sched.Compute(burst)
		}))
		pids[i] = t.PID()
	}
	eng.Run(sim.MaxTime) // every thread parks in its first Block
	b.ReportAllocs()
	b.ResetTimer()
	start := m.Switches()
	for i := 0; i < b.N; i++ {
		for _, pid := range pids {
			m.Wake(pid)
		}
		eng.Run(sim.MaxTime)
	}
	b.ReportMetric(float64(m.Switches()-start)/float64(b.N), "switches/op")
}

// BenchmarkSim_EngineAtRun measures the discrete-event queue in steady
// state: 64 pending events, and each event that fires schedules one
// successor at a pseudo-random delay, so one op is one At plus one
// dispatch. Slots are recycled, so it must stay allocation-free.
func BenchmarkSim_EngineAtRun(b *testing.B) {
	e := sim.NewEngine()
	rng := sim.NewRNG(1)
	left := b.N
	var fn func()
	fn = func() {
		if left > 0 {
			left--
			e.After(sim.Duration(rng.Intn(1000)), fn)
		}
	}
	for i := 0; i < 64; i++ {
		e.After(sim.Duration(rng.Intn(1000)), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(sim.MaxTime)
}

// synthesize folds tr through a fresh SynthesizeSink and builds its DAG.
func synthesize(tr *trace.Trace) *core.DAG {
	sink := core.NewSynthesizeSink()
	for _, e := range tr.Events {
		sink.Observe(e)
	}
	return sink.DAG()
}

// BenchmarkDAG_Synthesize measures full DAG synthesis from a 20 s AVP
// trace: every event folded through a SynthesizeSink, then DAG.
func BenchmarkDAG_Synthesize(b *testing.B) {
	tr := avpTrace(b, 20*sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := synthesize(tr)
		if len(d.Vertices) != 7 {
			b.Fatalf("vertices %d", len(d.Vertices))
		}
	}
}

// BenchmarkDAG_Merge measures merging 50 per-run DAGs.
func BenchmarkDAG_Merge(b *testing.B) {
	base := synthesize(avpTrace(b, 5*sim.Second))
	dags := make([]*core.DAG, 50)
	for i := range dags {
		dags[i] = base
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := core.MergeDAGs(dags...)
		if len(d.Vertices) != 7 {
			b.Fatal("merge broke")
		}
	}
}

// BenchmarkEBPF_ProbeDispatch measures one uprobe firing through the
// verifier-approved interpreter (the per-event tracing cost).
func BenchmarkEBPF_ProbeDispatch(b *testing.B) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	bundle, err := tracers.NewBundle(w.Runtime())
	if err != nil {
		b.Fatal(err)
	}
	if err := bundle.StartRT(); err != nil {
		b.Fatal(err)
	}
	node := w.NewNode("bench", 5, 0)
	// Fire through a pre-resolved site, as the middleware does.
	site := w.Runtime().Site(ebpf.Symbol{Lib: "rclcpp", Func: "execute_subscription"})
	pid := node.PID()
	var kc trace.KindCounter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site.FireEntry(pid, 0)
		if i&4095 == 4095 {
			// Drain like the user-space poller does; an undrained
			// buffer measures ring growth, not dispatch.
			b.StopTimer()
			if err := bundle.StreamTo(&kc); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// dispatchRuntime builds a runtime with a representative tracer-shaped
// program (ctx loads, ALU, branches, four map-helper calls, no perf
// output so the workload is pure dispatch) attached to one uprobe.
func dispatchRuntime(b *testing.B) *ebpf.ProbeSite {
	b.Helper()
	rt := ebpf.NewRuntime(func() int64 { return 42 }, nil)
	hm := ebpf.NewHashMap("state", 1024)
	fd := rt.RegisterMap(hm)
	p := ebpf.NewAssembler("dispatch_bench").
		LdxCtx(ebpf.R6, ebpf.R1, 0).
		LdxCtx(ebpf.R7, ebpf.R1, 1).
		MovReg(ebpf.R8, ebpf.R6).
		MulImm(ebpf.R8, 31).
		AddReg(ebpf.R8, ebpf.R7).
		AndImm(ebpf.R8, 0xff).
		JgtImm(ebpf.R8, 128, "high").
		AddImm(ebpf.R8, 17).
		Ja("store").
		Label("high").
		SubImm(ebpf.R8, 9).
		Label("store").
		MovImm(ebpf.R1, fd).
		MovReg(ebpf.R2, ebpf.R8).
		MovReg(ebpf.R3, ebpf.R6).
		Call(ebpf.HelperMapUpdate).
		MovImm(ebpf.R1, fd).
		MovReg(ebpf.R2, ebpf.R8).
		Call(ebpf.HelperMapLookup).
		MovReg(ebpf.R9, ebpf.R0).
		MovImm(ebpf.R1, fd).
		MovImm(ebpf.R2, 999).
		Call(ebpf.HelperMapLookupExist).
		AddReg(ebpf.R9, ebpf.R0).
		Call(ebpf.HelperKtimeGetNs).
		AddReg(ebpf.R9, ebpf.R0).
		Call(ebpf.HelperGetCurrentPid).
		AddReg(ebpf.R9, ebpf.R0).
		MovReg(ebpf.R0, ebpf.R9).
		Exit().
		MustAssemble()
	if err := rt.Load(p, 2); err != nil {
		b.Fatal(err)
	}
	sym := ebpf.Symbol{Lib: "rclcpp", Func: "bench_target"}
	if _, err := rt.AttachUprobe(sym, p); err != nil {
		b.Fatal(err)
	}
	return rt.Site(sym)
}

// BenchmarkEBPF_DispatchDecoded measures one probe fire over the
// dispatch form Load installs (fused helper patterns, compacted blocks),
// exactly as every fire of a tracing session runs.
func BenchmarkEBPF_DispatchDecoded(b *testing.B) {
	site := dispatchRuntime(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site.FireEntry(7, 0, uint64(i), uint64(i>>3))
	}
}

// benchDAG builds a synthetic DAG large enough to expose lookup scaling:
// a layered graph with fan-in and fan-out.
func benchDAG(vertices, width int) *core.DAG {
	d := core.NewDAG()
	key := func(i int) string {
		return "node" + string(rune('A'+i%26)) + "|sub|" + string(rune('0'+i%10)) + string(rune('a'+(i/26)%26))
	}
	for i := 0; i < vertices; i++ {
		d.Vertices[key(i)] = &core.Vertex{Key: key(i)}
	}
	for i := 0; i < vertices; i++ {
		for j := 1; j <= width; j++ {
			d.AddEdge(core.Edge{From: key(i), To: key((i + j) % vertices), Topic: "/t"})
		}
	}
	return d
}

// BenchmarkDAG_VertexByLabelSubstring measures the label lookup the
// Table II row mapping performs per callback.
func BenchmarkDAG_VertexByLabelSubstring(b *testing.B) {
	d := benchDAG(260, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := d.VertexByLabelSubstring("nodeZ|sub"); v == nil {
			b.Fatal("missing vertex")
		}
	}
}

// BenchmarkEBPF_PerfEmitPerCPU measures perf-ring emission round-robin
// across 8 CPU rings — the buffer half of perf_event_output — with the
// periodic drain a user-space poller performs: each ring's segment is
// drained into a cursor and released, as Bundle.StreamTo does, so the
// next burst reuses the arena chunks.
func BenchmarkEBPF_PerfEmitPerCPU(b *testing.B) {
	pb := ebpf.NewPerfBuffer("bench", 0, new(uint64))
	payload := make([]byte, 64)
	var c ebpf.RecordCursor
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Emit(i&7, int64(i), payload)
		if i&8191 == 8191 {
			b.StopTimer()
			for cpu := 0; cpu < pb.NumRings(); cpu++ {
				pb.DrainCursorInto(&c, cpu)
				c.Release()
			}
			b.StartTimer()
		}
	}
}

// BenchmarkTraceCodec_Binary measures the trace store codec.
func BenchmarkTraceCodec_Binary(b *testing.B) {
	tr := avpTrace(b, 10*sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := trace.WriteBinary(&buf, tr); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf))
	}
}

type writeCounter int

func (w *writeCounter) Write(p []byte) (int, error) {
	*w += writeCounter(len(p))
	return len(p), nil
}

// benchTracedWorld boots an AVP+SYN world under all three tracers for
// the streaming-drain benchmarks; each iteration refills the rings by
// advancing the simulation off the clock.
func benchTracedWorld(b *testing.B, cpus int) (*rclcpp.World, *tracers.Bundle) {
	b.Helper()
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: cpus, Seed: 5})
	bd, err := tracers.NewBundle(w.Runtime())
	if err != nil {
		b.Fatal(err)
	}
	tracers.BridgeSched(w.Machine(), w.Runtime())
	for _, err := range []error{bd.StartInit(), bd.StartRT(), bd.StartKernel(true)} {
		if err != nil {
			b.Fatal(err)
		}
	}
	harness.BuildBoth(1)(w)
	bd.StopInit()
	return w, bd
}

// BenchmarkBundle_StreamDrain measures the streaming drain of one
// 500 ms segment into a counting sink: per-ring cursors, lazy decode,
// tournament merge — no event slice is ever built, so allocations stay
// per-drain-constant instead of per-event.
func BenchmarkBundle_StreamDrain(b *testing.B) {
	w, bd := benchTracedWorld(b, 8)
	var kc trace.KindCounter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.Run(500 * sim.Millisecond)
		b.StartTimer()
		if err := bd.StreamTo(&kc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(kc.Total())/float64(b.N), "events/op")
}

// BenchmarkBundle_StreamSynthesize measures the full streaming pipeline
// stage: one 500 ms segment drained straight into the online Algorithm
// 1/2 builder, every event folded as it arrives and none retained.
func BenchmarkBundle_StreamSynthesize(b *testing.B) {
	w, bd := benchTracedWorld(b, 8)
	mb := core.NewModelBuilder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.Run(500 * sim.Millisecond)
		b.StartTimer()
		if err := bd.StreamTo(mb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlg1_StreamModel measures Algorithm 1 over a 20 s AVP trace:
// the events folded through an instance-keeping ModelBuilder, exec times
// accumulating as events pass, then Finish.
func BenchmarkAlg1_StreamModel(b *testing.B) {
	tr := avpTrace(b, 20*sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb := core.NewModelBuilder()
		for _, e := range tr.Events {
			mb.Observe(e)
		}
		if len(mb.Finish().Callbacks) == 0 {
			b.Fatal("empty model")
		}
	}
}

// benchStoreSession writes one multi-segment AVP session into a fresh
// store — contiguous chunks of a (Time, Seq)-sorted whole-run trace,
// exactly the shape the rostracer periodic loop persists. Segments use
// the store default format (v2).
func benchStoreSession(b *testing.B, seconds sim.Duration, segments int) (*trace.Store, string, int) {
	return benchStoreSessionFormat(b, seconds, segments, 0)
}

// benchStoreSessionFormat is benchStoreSession with an explicit segment
// format (0 = the store default, v2).
func benchStoreSessionFormat(b *testing.B, seconds sim.Duration, segments int, format trace.Format) (*trace.Store, string, int) {
	b.Helper()
	return saveSegmented(b, avpTrace(b, seconds), segments, format)
}

// saveSegmented writes tr into a fresh store as session "run", split
// into segments contiguous chunks.
func saveSegmented(b *testing.B, tr *trace.Trace, segments int, format trace.Format) (*trace.Store, string, int) {
	b.Helper()
	st, err := trace.NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	st.Format = format
	n := len(tr.Events)
	per := (n + segments - 1) / segments
	for seg := 0; seg < segments; seg++ {
		sw, err := st.WriteSegment("run", seg)
		if err != nil {
			b.Fatal(err)
		}
		lo := min(seg*per, n)
		for _, e := range tr.Events[lo:min(lo+per, n)] {
			sw.Observe(e)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	return st, "run", n
}

// BenchmarkStoreStreamSession measures the streaming read path over the
// same session: segment cursors decode one record at a time and the
// k-way merge feeds the sink directly, so allocations are O(segments) —
// independent of how many events the session holds.
func BenchmarkStoreStreamSession(b *testing.B) {
	st, sess, want := benchStoreSession(b, 10*sim.Second, 8)
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		var kc trace.KindCounter
		if err := st.StreamSession(sess, &kc); err != nil {
			b.Fatal(err)
		}
		if kc.Total() != want {
			b.Fatalf("streamed %d events, want %d", kc.Total(), want)
		}
		events += kc.Total()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkStoreStreamSynthesize measures the paper's end goal on the
// persistent path: a stored session streaming straight into the
// incremental Algorithm 1/2 builder, disk to model, nothing
// materialized.
func BenchmarkStoreStreamSynthesize(b *testing.B) {
	st, sess, _ := benchStoreSession(b, 10*sim.Second, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb := core.NewModelBuilder()
		if err := st.StreamSession(sess, mb); err != nil {
			b.Fatal(err)
		}
		if len(mb.Finish().Callbacks) == 0 {
			b.Fatal("empty model")
		}
	}
}

// BenchmarkStoreStreamSynthesize60 is BenchmarkStoreStreamSynthesize in
// the shape of the reference run (rostracer -app both -segment 1s, 60 s):
// 60 v2 segments streamed into the synthesis sink. With 60 cursors
// primed at once, a per-segment read cost shows here that the 8-segment
// benchmarks hide.
func BenchmarkStoreStreamSynthesize60(b *testing.B) {
	var col trace.Collector
	if _, err := harness.RunSession(1, 12, 60*sim.Second, true, harness.BuildBoth(1), &col); err != nil {
		b.Fatal(err)
	}
	st, sess, want := saveSegmented(b, &col.Trace, 60, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := core.NewSynthesizeSink()
		if err := st.StreamSession(sess, sink); err != nil {
			b.Fatal(err)
		}
		if err := sink.Err(); err != nil {
			b.Fatal(err)
		}
		if len(sink.DAG().Vertices) == 0 {
			b.Fatal("empty model")
		}
	}
	b.ReportMetric(float64(want), "events/op")
}

// BenchmarkStoreStreamSessionV1 is BenchmarkStoreStreamSession over v1
// segments: the flat-record read path the v2 migration keeps alive, and
// the reference point for the v2 numbers above it.
func BenchmarkStoreStreamSessionV1(b *testing.B) {
	st, sess, want := benchStoreSessionFormat(b, 10*sim.Second, 8, trace.FormatV1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var kc trace.KindCounter
		if err := st.StreamSession(sess, &kc); err != nil {
			b.Fatal(err)
		}
		if kc.Total() != want {
			b.Fatalf("streamed %d events, want %d", kc.Total(), want)
		}
	}
}

// BenchmarkStoreQuerySession measures the indexed filtered read: a
// narrow time window (1% of a 10 s, 8-segment v2 session) answered
// through the footer indexes. The work is proportional to the blocks
// that overlap the window, not the session — compare against
// BenchmarkStoreStreamSession, which decodes every record to answer
// the same question.
func BenchmarkStoreQuerySession(b *testing.B) {
	benchStoreQuery(b, 5*sim.Second, 5*sim.Second+100*sim.Millisecond)
}

// BenchmarkStoreQuerySessionWide measures the indexed read on a wide
// window (60% of the same session), where most blocks are selected and
// the cost approaches a full decode of the window.
func BenchmarkStoreQuerySessionWide(b *testing.B) {
	benchStoreQuery(b, 2*sim.Second, 8*sim.Second)
}

// benchStoreQuery queries the [t0, t1] window of a 10 s, 8-segment v2
// session, reporting how many records matched and how many blocks the
// index let it read and skip.
func benchStoreQuery(b *testing.B, t0, t1 sim.Duration) {
	st, sess, _ := benchStoreSession(b, 10*sim.Second, 8)
	f := trace.Filter{T0: sim.Time(t0), T1: sim.Time(t1)}
	b.ReportAllocs()
	b.ResetTimer()
	var last trace.QueryStats
	for i := 0; i < b.N; i++ {
		var kc trace.KindCounter
		stats, err := st.QuerySession(sess, f, &kc)
		if err != nil {
			b.Fatal(err)
		}
		if kc.Total() == 0 || kc.Total() != stats.RecordsMatched {
			b.Fatalf("window matched %d events (stats %+v)", kc.Total(), stats)
		}
		last = stats
	}
	b.ReportMetric(float64(last.RecordsMatched), "matched/op")
	b.ReportMetric(float64(last.BlocksRead), "blocks-read/op")
	b.ReportMetric(float64(last.BlocksSkipped), "blocks-skipped/op")
}

// countWriter counts bytes; the write benchmarks use it to report
// on-disk density without touching a filesystem.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// benchSegmentWrite encodes a 10 s AVP trace through one segment writer
// of the given format, reporting encode throughput and bytes/event.
func benchSegmentWrite(b *testing.B, format trace.Format) {
	tr := avpTrace(b, 10*sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	var bytes int64
	for i := 0; i < b.N; i++ {
		var cw countWriter
		sw := trace.NewSegmentWriterFormat(&cw, format, 0)
		for _, e := range tr.Events {
			sw.Observe(e)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
		bytes = cw.n
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
	b.ReportMetric(float64(bytes)/float64(len(tr.Events)), "B/event")
}

// BenchmarkSegmentWriteV1 measures the flat v1 record encoder.
func BenchmarkSegmentWriteV1(b *testing.B) { benchSegmentWrite(b, trace.FormatV1) }

// BenchmarkSegmentWriteV2 measures the delta-compressed v2 block
// encoder; its B/event against V1's is the compression ratio
// docs/PERFORMANCE.md reports.
func BenchmarkSegmentWriteV2(b *testing.B) { benchSegmentWrite(b, trace.FormatV2) }

// BenchmarkMetricsSinkObserve measures the metrics sink's per-event fold
// — kind counter, publish-latency histogram, callback exec-time pairing —
// over a representative event mix. The sink rides every drain when
// -metrics-addr is set, so this path must stay allocation-free at steady
// state: topic/node histogram cells and PID bindings are cached on first
// sight, and the warmup observes the whole cycle before the timer starts
// so the measured loop only exercises the cached path.
func BenchmarkMetricsSinkObserve(b *testing.B) {
	reg := metrics.NewRegistry()
	s := metrics.NewSink(reg)
	topics := []string{"/image_raw", "/points_raw", "/tf", "/odom"}
	nodes := []string{"camera", "lidar", "fusion", "planner"}
	var events []trace.Event
	var tm sim.Time
	for i, n := range nodes {
		pid := uint32(100 + i)
		events = append(events, trace.Event{Time: tm, Kind: trace.KindCreateNode, PID: pid, Node: n})
		tm += 1000
		events = append(events,
			trace.Event{Time: tm, Kind: trace.KindSubCBStart, PID: pid},
			trace.Event{Time: tm + 100, Kind: trace.KindTakeInt, PID: pid, Topic: topics[i], SrcTS: int64(tm) - 50_000},
			trace.Event{Time: tm + 30_000, Kind: trace.KindSubCBEnd, PID: pid},
			trace.Event{Time: tm + 31_000, Kind: trace.KindDDSWrite, PID: pid, Topic: topics[i], SrcTS: int64(tm) + 31_000},
			trace.Event{Time: tm + 32_000, Kind: trace.KindSchedSwitch, PrevPID: pid, NextPID: 0},
		)
		tm += 40_000
	}
	for _, e := range events {
		s.Observe(e) // warm the topic/node/PID caches
	}
	span := tm
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, len(events); i < b.N; i, j = i+1, j+1 {
		if j == len(events) {
			// Shift the mix one span on, keeping the stream in the
			// (Time, Seq) order the sink enforces.
			for k := range events {
				events[k].Time += span
				events[k].SrcTS += int64(span)
			}
			j = 0
		}
		s.Observe(events[j])
	}
	if err := s.Err(); err != nil {
		b.Fatal(err)
	}
	if s.Events() == 0 {
		b.Fatal("sink observed nothing")
	}
}

// BenchmarkSnapshotIncremental measures one live Snapshot after the
// service has already folded sessions of increasing length. Each
// iteration observes a small fixed batch of events, each folded as it
// arrives, and snapshots; a snapshot only materializes the engine's
// accumulators, so ns/op tracks the number of callbacks and instances,
// not the events behind them. (A batch re-traversal over the same
// preloads would be linear in session length.)
func BenchmarkSnapshotIncremental(b *testing.B) {
	full := avpTrace(b, 16*sim.Second)
	for _, preload := range []sim.Duration{2 * sim.Second, 8 * sim.Second, 16 * sim.Second} {
		b.Run(fmt.Sprintf("preload=%ds", preload/sim.Second), func(b *testing.B) {
			cut := sort.Search(len(full.Events), func(i int) bool {
				return full.Events[i].Time >= sim.Time(preload)
			})
			if cut == 0 {
				b.Fatal("empty preload")
			}
			svc := core.NewSnapshotService()
			for _, e := range full.Events[:cut] {
				svc.Observe(e)
			}
			if s := svc.Snapshot(); len(s.Model.Callbacks) == 0 {
				b.Fatal("empty model after preload")
			}
			// Monotone synthetic sched delta continuing past the preload:
			// folds through the full Observe path without disturbing the
			// extracted callbacks.
			tm := full.Events[cut-1].Time
			seq := full.Events[cut-1].Seq
			delta := make([]trace.Event, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range delta {
					tm += sim.Time(sim.Microsecond)
					seq++
					delta[j] = trace.Event{Time: tm, Seq: seq,
						Kind: trace.KindSchedSwitch, PrevPID: 1, NextPID: 2}
				}
				for _, e := range delta {
					svc.Observe(e)
				}
				s := svc.Snapshot()
				if len(s.Model.Callbacks) == 0 || s.DAG == nil {
					b.Fatal("empty snapshot")
				}
			}
		})
	}
}
