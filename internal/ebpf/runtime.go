package ebpf

import (
	"fmt"

	"github.com/tracesynth/rostracer/internal/umem"
)

// Symbol identifies a probeable user-space function: a shared object and a
// function name, e.g. {"rclcpp", "execute_subscription"}.
type Symbol struct {
	Lib  string
	Func string
}

func (s Symbol) String() string { return s.Lib + ":" + s.Func }

// AttachKind distinguishes entry probes, return probes and kernel
// tracepoints.
type AttachKind uint8

// Attachment kinds.
const (
	AttachUprobe AttachKind = iota
	AttachUretprobe
	AttachTracepoint
)

func (k AttachKind) String() string {
	switch k {
	case AttachUprobe:
		return "uprobe"
	case AttachUretprobe:
		return "uretprobe"
	default:
		return "tracepoint"
	}
}

// perInsnNs is the simulated cost of one interpreted instruction: ~4 ns,
// the order of magnitude of a JITed eBPF instruction plus map-helper
// amortization.
const perInsnNs = 4

type attachment struct {
	prog *Program
	id   int
}

// RuntimeStats aggregates the cost of all program executions, mirroring
// what `bpftool prog show` reports (run count and cumulative runtime).
type RuntimeStats struct {
	Runs  uint64
	Insns uint64
}

// Runtime owns loaded programs, maps, and attachments, and dispatches probe
// firings from the simulated middleware and kernel. It corresponds to the
// in-kernel BPF machinery plus the BCC loader in Fig. 1 of the paper.
type Runtime struct {
	vm     *VM
	maps   map[int64]Map
	nextFD int64

	uprobes     map[Symbol][]attachment
	uretprobes  map[Symbol][]attachment
	tracepoints map[string][]attachment
	nextAttach  int

	// attachGen increments on every attach/detach; resolved probe sites
	// use it to know when their cached attachment lists went stale, so a
	// fire through a site costs one integer compare instead of a
	// string-hashed map lookup.
	attachGen uint64
	sites     map[Symbol]*ProbeSite
	tpSites   map[string]*TracepointSite

	// clock returns the current virtual time; injected by the simulation.
	clock func() int64
	// spaces resolves a PID to its simulated address space.
	spaces func(pid uint32) *umem.Space

	stats  RuntimeStats
	costNs float64 // accumulated simulated tracing cost

	// reference, when set, runs every fire instead of the installed
	// form. Only tests set it, to drive the same session through the raw
	// reference interpreter.
	reference func(*Program, *ExecContext) ExecResult
	// fireCtx and fireWords are the per-runtime execution context and
	// argument scratch reused across probe fires, so the hot dispatch
	// path allocates nothing. The runtime is owned by one single-threaded
	// simulation, mirroring how real probes run on the firing CPU.
	fireCtx   ExecContext
	fireWords []uint64

	nativeHooks  map[Symbol][]NativeHook
	nativeCostNs float64
}

// NewRuntime creates a runtime. clock supplies virtual time; spaces maps a
// PID to its address space (either may be nil for unit tests).
func NewRuntime(clock func() int64, spaces func(pid uint32) *umem.Space) *Runtime {
	rt := &Runtime{
		maps:        make(map[int64]Map),
		nextFD:      3, // fds 0-2 are taken, as in a real process
		uprobes:     make(map[Symbol][]attachment),
		uretprobes:  make(map[Symbol][]attachment),
		tracepoints: make(map[string][]attachment),
		clock:       clock,
		spaces:      spaces,
		fireWords:   make([]uint64, 0, MaxCtxWords),
	}
	rt.vm = NewVM()
	return rt
}

// RegisterMap installs m and returns its fd.
func (rt *Runtime) RegisterMap(m Map) int64 {
	fd := rt.nextFD
	rt.nextFD++
	rt.maps[fd] = m
	return fd
}

// MapByFD returns the map registered under fd, or nil.
func (rt *Runtime) MapByFD(fd int64) Map { return rt.maps[fd] }

// Load verifies p for an attach point exposing ctxWords context words and
// lowers and optimizes it into the pre-resolved dispatch form bound to
// this runtime's maps, once, as the kernel JIT-compiles a program at
// load. It must be called before Attach.
//
// Loading binds p to THIS runtime: the decoded form references this
// runtime's Map objects directly, so a Program must not be shared across
// runtimes (each session builds its own bundle, as NewBundle does). A
// later Load on another runtime rebinds the program there.
func (rt *Runtime) Load(p *Program, ctxWords int) error {
	if err := Verify(p, VerifyOptions{CtxWords: ctxWords, LookupMap: rt.MapByFD}); err != nil {
		return err
	}
	return decode(p, rt.MapByFD)
}

// AttachUprobe attaches p to the entry of sym. The program must be loaded.
func (rt *Runtime) AttachUprobe(sym Symbol, p *Program) (int, error) {
	return rt.attach(AttachUprobe, sym, "", p)
}

// AttachUretprobe attaches p to the return of sym.
func (rt *Runtime) AttachUretprobe(sym Symbol, p *Program) (int, error) {
	return rt.attach(AttachUretprobe, sym, "", p)
}

// AttachTracepoint attaches p to a kernel tracepoint such as
// "sched:sched_switch".
func (rt *Runtime) AttachTracepoint(name string, p *Program) (int, error) {
	return rt.attach(AttachTracepoint, Symbol{}, name, p)
}

func (rt *Runtime) attach(kind AttachKind, sym Symbol, tp string, p *Program) (int, error) {
	if p == nil {
		return 0, fmt.Errorf("ebpf: attach of nil program")
	}
	if p.dp == nil {
		return 0, fmt.Errorf("ebpf: program %q not loaded", p.Name)
	}
	id := rt.nextAttach
	rt.nextAttach++
	rt.attachGen++
	at := attachment{prog: p, id: id}
	switch kind {
	case AttachUprobe:
		rt.uprobes[sym] = append(rt.uprobes[sym], at)
	case AttachUretprobe:
		rt.uretprobes[sym] = append(rt.uretprobes[sym], at)
	case AttachTracepoint:
		rt.tracepoints[tp] = append(rt.tracepoints[tp], at)
	}
	return id, nil
}

// Detach removes an attachment by id. It reports whether it was found.
func (rt *Runtime) Detach(id int) bool {
	rt.attachGen++
	return removeAttachment(rt.uprobes, id) || removeAttachment(rt.uretprobes, id) ||
		removeAttachment(rt.tracepoints, id)
}

// removeAttachment deletes attachment id from whichever list of m holds
// it, reporting whether one did.
func removeAttachment[K comparable](m map[K][]attachment, id int) bool {
	for k, list := range m {
		for i, at := range list {
			if at.id == id {
				m[k] = append(list[:i:i], list[i+1:]...)
				return true
			}
		}
	}
	return false
}

// execCtx fills the runtime's reusable fire context. hasRet prepends ret as
// word 0 (uretprobes); args are copied into the scratch buffer so callers'
// variadic slices never escape to the heap. The returned context is valid
// until the next fire.
//
// ctx.CPU is the firing CPU: perf_event_output appends to that CPU's ring
// of the target perf buffer, as the kernel helper does with
// BPF_F_CURRENT_CPU. Unpinned contexts (negative cpu) are normalized to
// CPU 0 so the context always names a real ring.
func (rt *Runtime) execCtx(pid uint32, cpu int, hasRet bool, ret uint64, args []uint64) *ExecContext {
	if cpu < 0 {
		cpu = 0
	}
	words := rt.fireWords[:0]
	if hasRet {
		words = append(words, ret)
	}
	words = append(words, args...)
	rt.fireWords = words[:0]

	c := &rt.fireCtx
	c.PID = pid
	c.CPU = cpu
	c.NowNs = 0
	if rt.clock != nil {
		c.NowNs = rt.clock()
	}
	c.Mem = nil
	if rt.spaces != nil {
		c.Mem = rt.spaces(pid)
	}
	c.Words = words
	return c
}

func (rt *Runtime) run(list []attachment, ctx *ExecContext) {
	for _, at := range list {
		var res ExecResult
		if rt.reference != nil {
			res = rt.reference(at.prog, ctx)
		} else {
			res = rt.vm.Run(at.prog, ctx)
		}
		rt.stats.Runs++
		rt.stats.Insns += uint64(res.Insns)
		rt.costNs += float64(res.Insns) * perInsnNs
	}
}

// ProbeSite is a pre-resolved probe location: the middleware resolves a
// Symbol once at startup and fires through the site afterwards, the way a
// real uprobe is armed at a fixed address rather than re-resolved per hit.
// The cached attachment lists refresh lazily when the runtime's attachment
// generation moves.
type ProbeSite struct {
	rt  *Runtime
	sym Symbol
	gen uint64

	uprobes    []attachment
	uretprobes []attachment
	native     []NativeHook
}

// Site returns the interned probe site for sym.
func (rt *Runtime) Site(sym Symbol) *ProbeSite {
	if rt.sites == nil {
		rt.sites = make(map[Symbol]*ProbeSite)
	}
	if s, ok := rt.sites[sym]; ok {
		return s
	}
	s := &ProbeSite{rt: rt, sym: sym}
	s.refresh()
	rt.sites[sym] = s
	return s
}

func (s *ProbeSite) refresh() {
	s.uprobes = s.rt.uprobes[s.sym]
	s.uretprobes = s.rt.uretprobes[s.sym]
	s.native = s.rt.nativeHooks[s.sym]
	s.gen = s.rt.attachGen
}

// FireEntry fires the site's entry probes; args become ctx words 0..n-1.
func (s *ProbeSite) FireEntry(pid uint32, cpu int, args ...uint64) {
	if s.gen != s.rt.attachGen {
		s.refresh()
	}
	if len(s.uprobes) > 0 {
		s.rt.run(s.uprobes, s.rt.execCtx(pid, cpu, false, 0, args))
	}
	if len(s.native) > 0 {
		s.rt.runNativeList(s.native, s.rt.execCtx(pid, cpu, false, 0, args))
	}
}

// FireReturn fires the site's return probes; ret becomes ctx word 0 and
// the entry args follow in words 1..n.
func (s *ProbeSite) FireReturn(pid uint32, cpu int, ret uint64, args ...uint64) {
	if s.gen != s.rt.attachGen {
		s.refresh()
	}
	if len(s.uretprobes) > 0 {
		s.rt.run(s.uretprobes, s.rt.execCtx(pid, cpu, true, ret, args))
	}
}

// TracepointSite is the pre-resolved analogue for kernel tracepoints.
type TracepointSite struct {
	rt   *Runtime
	name string
	gen  uint64
	list []attachment
}

// TracepointSiteFor returns the interned site for a tracepoint name.
func (rt *Runtime) TracepointSiteFor(name string) *TracepointSite {
	if rt.tpSites == nil {
		rt.tpSites = make(map[string]*TracepointSite)
	}
	if s, ok := rt.tpSites[name]; ok {
		return s
	}
	s := &TracepointSite{rt: rt, name: name}
	s.refresh()
	rt.tpSites[name] = s
	return s
}

func (s *TracepointSite) refresh() {
	s.list = s.rt.tracepoints[s.name]
	s.gen = s.rt.attachGen
}

// Fire fires the tracepoint; fields are the record in declaration order.
func (s *TracepointSite) Fire(cpu int, fields ...uint64) {
	if s.gen != s.rt.attachGen {
		s.refresh()
	}
	if len(s.list) > 0 {
		s.rt.run(s.list, s.rt.execCtx(0, cpu, false, 0, fields))
	}
}

// Stats returns cumulative execution statistics.
func (rt *Runtime) Stats() RuntimeStats { return rt.stats }

// CostNs returns the simulated CPU nanoseconds consumed by probe programs,
// the numerator of the paper's "0.008 CPU cores" overhead figure.
func (rt *Runtime) CostNs() float64 { return rt.costNs }

// NativeHook is user-space instrumentation invoked synchronously at a
// probe site, modeling LD_PRELOAD-style function redirection (the CARET
// approach the paper compares against in Sec. II-B): the call is diverted
// to a tracing shim which must resolve and invoke the original symbol,
// which costs a fixed overhead per invocation on top of the event
// handling itself.
type NativeHook struct {
	Fn     func(ctx *ExecContext)
	CostNs float64 // per-invocation redirection + handling cost
}

// AttachNativeHook registers hook at sym's entry.
func (rt *Runtime) AttachNativeHook(sym Symbol, hook NativeHook) {
	if rt.nativeHooks == nil {
		rt.nativeHooks = make(map[Symbol][]NativeHook)
	}
	rt.attachGen++
	rt.nativeHooks[sym] = append(rt.nativeHooks[sym], hook)
}

// NativeCostNs returns the simulated cost accumulated by native hooks.
func (rt *Runtime) NativeCostNs() float64 { return rt.nativeCostNs }

func (rt *Runtime) runNativeList(list []NativeHook, ctx *ExecContext) {
	for _, h := range list {
		h.Fn(ctx)
		rt.nativeCostNs += h.CostNs
	}
}
