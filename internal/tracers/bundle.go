package tracers

import (
	"encoding/binary"
	"fmt"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/msgfilters"
	"github.com/tracesynth/rostracer/internal/rcl"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/rmw"
	"github.com/tracesynth/rostracer/internal/sched"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// Bundle owns the three tracers of Fig. 1/Fig. 2 — TR_IN (ROS2-INIT),
// TR_RT (ROS2-RT) and TR_KN (Kernel) — sharing one eBPF runtime, one PID
// filter map, and a global emission-sequence counter so events from the
// different perf buffers merge into a total order.
type Bundle struct {
	rt  *ebpf.Runtime
	seq uint64

	pidMap *ebpf.HashMap
	entMap *ebpf.HashMap
	srcMap *ebpf.HashMap

	initPB *ebpf.PerfBuffer
	rtPB   *ebpf.PerfBuffer
	knPB   *ebpf.PerfBuffer

	progs map[string]*ebpf.Program

	initIDs []int

	// Streaming-drain scratch, reused across StreamTo calls so a
	// steady-state drain loop allocates nothing: per-ring record cursors,
	// the cursor-reference slice handed to the merge, and the merge
	// itself (which reuses its heads/heap storage on Reset).
	drainCurs []recordCursor
	drainRefs []trace.Cursor
	merge     trace.MergeStream
}

// NewBundle constructs maps, perf buffers, and all probe programs, and
// verifies ("loads") every program against rt. No probe is attached yet;
// use the Start* methods. Rings are unbounded, the configuration every
// figure experiment uses.
func NewBundle(rt *ebpf.Runtime) (*Bundle, error) {
	return NewBundleCapacity(rt, 0)
}

// NewBundleCapacity is NewBundle with a per-CPU ring record bound on
// every tracer buffer (0 means unbounded). Bounded rings model real
// perf_event_array overruns: records beyond the bound are counted lost
// against the overrunning CPU, the data the capacity-planning experiment
// sweeps.
func NewBundleCapacity(rt *ebpf.Runtime, perRingCapacity int) (*Bundle, error) {
	b := &Bundle{rt: rt, progs: make(map[string]*ebpf.Program)}
	b.pidMap = ebpf.NewHashMap("ros2_pids", 1024)
	b.entMap = ebpf.NewHashMap("take_entity_addr", 4096)
	b.srcMap = ebpf.NewHashMap("take_srcts_addr", 4096)
	pidFD := rt.RegisterMap(b.pidMap)
	entFD := rt.RegisterMap(b.entMap)
	srcFD := rt.RegisterMap(b.srcMap)

	b.initPB = ebpf.NewPerfBuffer("tr_in", perRingCapacity, &b.seq)
	b.rtPB = ebpf.NewPerfBuffer("tr_rt", perRingCapacity, &b.seq)
	b.knPB = ebpf.NewPerfBuffer("tr_kn", perRingCapacity, &b.seq)
	initFD := rt.RegisterMap(b.initPB)
	rtFD := rt.RegisterMap(b.rtPB)
	knFD := rt.RegisterMap(b.knPB)

	add := func(p *ebpf.Program) *ebpf.Program {
		b.progs[p.Name] = p
		return p
	}

	add(createNodeProg(initFD, pidFD))

	add(plainProg("p2_execute_timer_entry", trace.KindTimerCBStart, rtFD))
	add(timerCallProg(rtFD))
	add(plainProg("p4_execute_timer_exit", trace.KindTimerCBEnd, rtFD))
	add(plainProg("p5_execute_subscription_entry", trace.KindSubCBStart, rtFD))
	add(takeEntryProg("p6_rmw_take_int_entry", entFD, srcFD))
	add(takeExitProg("p6_rmw_take_int_exit", trace.KindTakeInt, entFD, srcFD, rtFD))
	add(plainProg("p7_msgfilters_operator", trace.KindSyncSubscribe, rtFD))
	add(plainProg("p8_execute_subscription_exit", trace.KindSubCBEnd, rtFD))
	add(plainProg("p9_execute_service_entry", trace.KindServiceCBStart, rtFD))
	add(takeEntryProg("p10_rmw_take_request_entry", entFD, srcFD))
	add(takeExitProg("p10_rmw_take_request_exit", trace.KindTakeRequest, entFD, srcFD, rtFD))
	add(plainProg("p11_execute_service_exit", trace.KindServiceCBEnd, rtFD))
	add(plainProg("p12_execute_client_entry", trace.KindClientCBStart, rtFD))
	add(takeEntryProg("p13_rmw_take_response_entry", entFD, srcFD))
	add(takeExitProg("p13_rmw_take_response_exit", trace.KindTakeResponse, entFD, srcFD, rtFD))
	add(retProg("p14_take_type_erased_response", trace.KindTakeTypeErased, rtFD))
	add(plainProg("p15_execute_client_exit", trace.KindClientCBEnd, rtFD))
	add(ddsWriteProg(rtFD))

	add(schedSwitchProg(pidFD, knFD, true))
	add(schedSwitchProg(pidFD, knFD, false))
	add(schedWakeupProg(pidFD, knFD))

	for name, p := range b.progs {
		if err := rt.Load(p, ctxWords); err != nil {
			return nil, fmt.Errorf("tracers: loading %s: %w", name, err)
		}
	}
	return b, nil
}

func (b *Bundle) attach(ids *[]int, kind ebpf.AttachKind, sym ebpf.Symbol, tp string, prog string) error {
	p, ok := b.progs[prog]
	if !ok {
		return fmt.Errorf("tracers: unknown program %q", prog)
	}
	var id int
	var err error
	switch kind {
	case ebpf.AttachUprobe:
		id, err = b.rt.AttachUprobe(sym, p)
	case ebpf.AttachUretprobe:
		id, err = b.rt.AttachUretprobe(sym, p)
	default:
		id, err = b.rt.AttachTracepoint(tp, p)
	}
	if err != nil {
		return err
	}
	*ids = append(*ids, id)
	return nil
}

func (b *Bundle) detach(ids *[]int) {
	for _, id := range *ids {
		b.rt.Detach(id)
	}
	*ids = nil
}

// StartInit attaches TR_IN (P1). It is activated before applications start
// so that every node creation is observed.
func (b *Bundle) StartInit() error {
	return b.attach(&b.initIDs, ebpf.AttachUprobe, rmw.SymCreateNode, "", "p1_rmw_create_node")
}

// StopInit detaches TR_IN.
func (b *Bundle) StopInit() { b.detach(&b.initIDs) }

// StartRT attaches TR_RT (P2–P16) for the rest of the bundle's life. On
// failure it detaches the probes it attached.
func (b *Bundle) StartRT() error {
	type at struct {
		kind ebpf.AttachKind
		sym  ebpf.Symbol
		prog string
	}
	plan := []at{
		{ebpf.AttachUprobe, rclcpp.SymExecuteTimer, "p2_execute_timer_entry"},
		{ebpf.AttachUprobe, rcl.SymTimerCall, "p3_rcl_timer_call"},
		{ebpf.AttachUretprobe, rclcpp.SymExecuteTimer, "p4_execute_timer_exit"},
		{ebpf.AttachUprobe, rclcpp.SymExecuteSubscription, "p5_execute_subscription_entry"},
		{ebpf.AttachUprobe, rmw.SymTakeInt, "p6_rmw_take_int_entry"},
		{ebpf.AttachUretprobe, rmw.SymTakeInt, "p6_rmw_take_int_exit"},
		{ebpf.AttachUprobe, msgfilters.SymOperator, "p7_msgfilters_operator"},
		{ebpf.AttachUretprobe, rclcpp.SymExecuteSubscription, "p8_execute_subscription_exit"},
		{ebpf.AttachUprobe, rclcpp.SymExecuteService, "p9_execute_service_entry"},
		{ebpf.AttachUprobe, rmw.SymTakeRequest, "p10_rmw_take_request_entry"},
		{ebpf.AttachUretprobe, rmw.SymTakeRequest, "p10_rmw_take_request_exit"},
		{ebpf.AttachUretprobe, rclcpp.SymExecuteService, "p11_execute_service_exit"},
		{ebpf.AttachUprobe, rclcpp.SymExecuteClient, "p12_execute_client_entry"},
		{ebpf.AttachUprobe, rmw.SymTakeResponse, "p13_rmw_take_response_entry"},
		{ebpf.AttachUretprobe, rmw.SymTakeResponse, "p13_rmw_take_response_exit"},
		{ebpf.AttachUretprobe, rclcpp.SymTakeTypeErased, "p14_take_type_erased_response"},
		{ebpf.AttachUretprobe, rclcpp.SymExecuteClient, "p15_execute_client_exit"},
		{ebpf.AttachUprobe, dds.SymWrite, "p16_dds_write_impl"},
	}
	var ids []int
	for _, a := range plan {
		if err := b.attach(&ids, a.kind, a.sym, "", a.prog); err != nil {
			b.detach(&ids)
			return err
		}
	}
	return nil
}

// StartKernel attaches TR_KN to sched:sched_switch. filtered selects the
// PID-filtered program (the paper's configuration); unfiltered records
// every switch (the memory-footprint comparison baseline). TR_KN stays
// attached for the rest of the bundle's life; on failure StartKernel
// detaches what it attached.
func (b *Bundle) StartKernel(filtered bool) error {
	prog := "sched_switch_filtered"
	if !filtered {
		prog = "sched_switch_unfiltered"
	}
	var ids []int
	if err := b.attach(&ids, ebpf.AttachTracepoint, ebpf.Symbol{}, "sched:sched_switch", prog); err != nil {
		return err
	}
	// The waiting-time extension (Sec. VII): wakeup events, PID-filtered.
	if err := b.attach(&ids, ebpf.AttachTracepoint, ebpf.Symbol{}, "sched:sched_wakeup", "sched_wakeup_filtered"); err != nil {
		b.detach(&ids)
		return err
	}
	return nil
}

// perfBuffers returns the three tracer buffers in TR_IN, TR_RT, TR_KN
// order.
func (b *Bundle) perfBuffers() [3]*ebpf.PerfBuffer {
	return [3]*ebpf.PerfBuffer{b.initPB, b.rtPB, b.knPB}
}

// SetRingFault installs (or, with nil, removes) one emission fault hook
// on all three tracer buffers. A drop the hook forces counts as lost on
// the emitting ring, exactly like a capacity overrun, so the usual
// Lost/PerCPU accounting covers injected ring faults too. Emissions
// consult the hook in a deterministic order (the simulation is
// single-threaded), so a scripted hook produces the same fault schedule
// for the same seed.
func (b *Bundle) SetRingFault(hook func(cpu int) bool) {
	for _, pb := range b.perfBuffers() {
		pb.SetEmitFault(hook)
	}
}

// walkRings calls fn with the accounting of every materialized per-CPU
// ring, by tracer (0 TR_IN, 1 TR_RT, 2 TR_KN) and then by CPU. It is the
// one walk every reader of ring accounting reads.
func (b *Bundle) walkRings(fn func(tracer, cpu int, st ebpf.RingStats)) {
	for t, pb := range b.perfBuffers() {
		for cpu := 0; cpu < pb.NumRings(); cpu++ {
			fn(t, cpu, pb.Ring(cpu))
		}
	}
}

// TraceBytes reports the cumulative perf-buffer payload bytes across all
// three tracers and all CPU rings — the paper's trace-volume metric.
func (b *Bundle) TraceBytes() uint64 {
	var n uint64
	b.walkRings(func(_, _ int, st ebpf.RingStats) { n += st.Bytes })
	return n
}

// Lost reports records dropped to ring capacity or injected ring faults,
// summed over the three tracers and all CPUs.
func (b *Bundle) Lost() uint64 {
	var n uint64
	b.walkRings(func(_, _ int, st ebpf.RingStats) { n += st.Lost })
	return n
}

// Emitted reports every emission the probes attempted: the records the
// shared counter stamped plus the ones the rings dropped. Once the rings
// are drained, Emitted equals the events drained plus Lost.
func (b *Bundle) Emitted() uint64 { return b.seq + b.Lost() }

// NumRings reports the total per-CPU ring count across the bundle's
// three tracers — the number of rings every drain covers.
func (b *Bundle) NumRings() int {
	n := 0
	b.walkRings(func(_, _ int, _ ebpf.RingStats) { n++ })
	return n
}

// MaxRingPending reports the largest undrained record count on any
// single per-CPU ring across the three tracers — the gauge a drain
// scheduler plans from (capacity bounds apply per ring, not per
// buffer).
func (b *Bundle) MaxRingPending() (pending, cpu int) {
	b.walkRings(func(_, c int, st ebpf.RingStats) {
		if st.Pending > pending {
			pending, cpu = st.Pending, c
		}
	})
	return pending, cpu
}

// PerCPU reports each CPU's ring accounting summed across the three
// tracers, indexed by CPU up to the highest CPU any ring materialized —
// the per-CPU view a perf_event_array poller gives user space.
func (b *Bundle) PerCPU() []ebpf.RingStats {
	var out []ebpf.RingStats
	b.walkRings(func(_, cpu int, st ebpf.RingStats) {
		if cpu >= len(out) {
			out = append(out, make([]ebpf.RingStats, cpu+1-len(out))...)
		}
		o := &out[cpu]
		o.Pending += st.Pending
		o.Lost += st.Lost
		o.Bytes += st.Bytes
	})
	return out
}

// recordCursor adapts one drained per-CPU ring segment to a decoded
// event stream: records decode lazily, one at a time, directly out of
// the ring's arena chunks as the merge pulls them, so the streaming
// drain never materializes a per-ring record or event slice.
type recordCursor struct {
	recs ebpf.RecordCursor
	ev   trace.Event // the record Next decoded last, reused in place
}

// Next implements trace.Cursor. The event is the cursor's own, valid
// until the next Next.
func (c *recordCursor) Next() (*trace.Event, bool, error) {
	rec, ok := c.recs.Next()
	if !ok {
		return nil, false, nil
	}
	if err := DecodeRecord(rec, &c.ev); err != nil {
		return nil, false, err
	}
	return &c.ev, true, nil
}

// StreamTo drains the three tracers into sink: each tracer owns one ring
// per CPU, every ring's current segment becomes a lazily-decoded cursor,
// and a tournament-heap merge delivers the 3×NCPU streams to the sink in
// (Time, Seq) order — each ring drains in emission order, monotonic in
// (Time, Seq) since virtual time never runs backwards and the shared
// emission counter only grows. No merged trace is ever materialized: the
// merge holds at most one decoded event per ring, so peak buffering is
// bounded by the ring count (plus the raw segments still resident in
// the ring arena chunks), independent of how many events a drain covers.
//
// The drain is zero-copy and, at steady state, allocation-free: records
// decode in place out of the arena chunks (DecodeRecord copies nothing
// out of a record — scalar fields are read directly and names intern to
// canonical strings), the chunks stay pinned until the sink has seen
// every event of the segment, and on return they are released to their
// rings for the next emission burst to reuse.
func (b *Bundle) StreamTo(sink trace.Sink) (err error) {
	nrings := b.NumRings()
	if cap(b.drainCurs) < nrings {
		b.drainCurs = make([]recordCursor, nrings)
	}
	curs := b.drainCurs[:nrings]
	refs := b.drainRefs[:0]
	if cap(refs) < nrings {
		refs = make([]trace.Cursor, 0, nrings)
	}
	n := 0
	for _, pb := range b.perfBuffers() {
		for cpu := 0; cpu < pb.NumRings(); cpu++ {
			rc := &curs[n]
			n++
			pb.DrainCursorInto(&rc.recs, cpu)
			if rc.recs.Len() == 0 {
				rc.recs.Release()
				continue
			}
			refs = append(refs, rc)
		}
	}
	b.drainRefs = refs[:0]
	if len(refs) == 0 {
		return nil
	}
	// Chunks stay pinned until the sink returns; only then do the
	// segments recycle.
	defer func() {
		for i := range curs {
			curs[i].recs.Release()
		}
	}()
	return b.merge.Reset(refs...).Run(sink)
}

// BridgeSched wires the simulated machine's scheduler notifications into
// the kernel tracepoints, standing in for the kernel's static tracepoint
// emission.
func BridgeSched(m *sched.Machine, rt *ebpf.Runtime) {
	swSite := rt.TracepointSiteFor("sched:sched_switch")
	wuSite := rt.TracepointSiteFor("sched:sched_wakeup")
	m.OnSwitch = func(sw sched.Switch) {
		swSite.Fire(sw.CPU,
			uint64(sw.PrevPID), uint64(sw.PrevPrio), uint64(sw.PrevState),
			uint64(sw.NextPID), uint64(sw.NextPrio))
	}
	m.OnWakeup = func(wu sched.Wakeup) {
		wuSite.Fire(0, uint64(wu.PID), uint64(wu.Prio))
	}
}

// DecodeRecord converts one perf record into the trace event e. It
// overwrites all of e, so e can be a reused slot; on error e is
// partially written and must not be used.
func DecodeRecord(rec ebpf.PerfRecord, e *trace.Event) error {
	if len(rec.Data) < recPlainSize {
		return fmt.Errorf("tracers: record too short: %d bytes", len(rec.Data))
	}
	f := func(i int) uint64 { return binary.LittleEndian.Uint64(rec.Data[i*8:]) }
	kind := trace.Kind(f(0))
	*e = trace.Event{Kind: kind, Seq: rec.Seq}

	if kind == trace.KindSchedSwitch {
		if len(rec.Data) != recSchedSize {
			return fmt.Errorf("tracers: sched record has %d bytes", len(rec.Data))
		}
		e.CPU = int32(f(1))
		e.Time = simTime(f(2))
		e.PrevPID = uint32(f(3))
		e.PrevPrio = int32(f(4))
		e.PrevState = int32(f(5))
		e.NextPID = uint32(f(6))
		e.NextPrio = int32(f(7))
		return nil
	}

	e.PID = uint32(f(1))
	e.Time = simTime(f(2))
	switch {
	case kind == trace.KindSchedWakeup:
		if len(rec.Data) != recIDSize {
			return fmt.Errorf("tracers: wakeup record has %d bytes", len(rec.Data))
		}
		// pid slot holds the woken thread; mirror it into NextPID, where a
		// switch names its incoming thread.
		e.NextPID = e.PID
		e.NextPrio = int32(f(3))
	case kind == trace.KindTimerCall:
		if len(rec.Data) != recIDSize {
			return fmt.Errorf("tracers: P3 record has %d bytes", len(rec.Data))
		}
		e.CBID = f(3)
	case kind == trace.KindTakeTypeErased:
		if len(rec.Data) != recRetSize {
			return fmt.Errorf("tracers: P14 record has %d bytes", len(rec.Data))
		}
		e.Ret = f(3)
	case kind == trace.KindCreateNode || kind.IsTake() || kind == trace.KindDDSWrite:
		if len(rec.Data) != recFullSize {
			return fmt.Errorf("tracers: %v record has %d bytes", kind, len(rec.Data))
		}
		e.CBID = f(3)
		e.SrcTS = int64(f(4))
		e.Ret = f(5)
		s := rec.Data[48:recFullSize]
		n := 0
		for n < len(s) && s[n] != 0 {
			n++
		}
		// Node and topic names recur on every record; interning returns
		// the canonical string instead of allocating one per record.
		if kind == trace.KindCreateNode {
			e.Node = trace.InternBytes(s[:n])
		} else {
			e.Topic = trace.InternBytes(s[:n])
		}
	default:
		if len(rec.Data) != recPlainSize {
			return fmt.Errorf("tracers: %v record has %d bytes", kind, len(rec.Data))
		}
	}
	return nil
}

func simTime(v uint64) sim.Time { return sim.Time(v) }
