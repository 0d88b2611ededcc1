package tracers

import (
	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/rmw"
	"github.com/tracesynth/rostracer/internal/trace"
	"github.com/tracesynth/rostracer/internal/umem"
)

// RedirectTracer is the comparison baseline of Sec. II-B: CARET-style
// LD_PRELOAD function redirection. Calls to the probed middleware
// functions are diverted into a tracing shim that records the event and
// then resolves and calls the original symbol — "running several lines of
// code to update addresses to find the original functions, which adds
// significant tracing overheads without any additional capabilities".
//
// It captures the same callback start/end, take, and write events as the
// eBPF ROS2-RT tracer (so models synthesized from either are equivalent),
// but each interception carries the redirection cost, and — unlike eBPF —
// it offers no in-kernel filtering for scheduler events. Each captured
// event goes straight to the tracer's sink, in emission order.
type RedirectTracer struct {
	rt   *ebpf.Runtime
	sink trace.Sink
	seq  uint64

	// CostPerEventNs is the simulated per-interception overhead: PLT
	// indirection, original-symbol lookup, and trace serialization.
	// CARET-style shims measure on the order of a microsecond.
	CostPerEventNs float64
}

// NewRedirectTracer creates the baseline tracer against rt, delivering
// every captured event to sink.
func NewRedirectTracer(rt *ebpf.Runtime, sink trace.Sink) *RedirectTracer {
	return &RedirectTracer{rt: rt, sink: sink, CostPerEventNs: 1500}
}

func (r *RedirectTracer) emit(e trace.Event) {
	e.Seq = r.seq
	r.seq++
	r.sink.Observe(e)
}

func (r *RedirectTracer) hook(sym ebpf.Symbol, fn func(ctx *ebpf.ExecContext)) {
	r.rt.AttachNativeHook(sym, ebpf.NativeHook{Fn: fn, CostNs: r.CostPerEventNs})
}

// Start intercepts the ROS2-RT function set. Entry-side shims observe both
// entry and return (the shim brackets the original call), so one hook per
// symbol suffices.
func (r *RedirectTracer) Start() {
	plain := func(kind trace.Kind) func(*ebpf.ExecContext) {
		return func(ctx *ebpf.ExecContext) {
			r.emit(trace.Event{Time: simTime(uint64(ctx.NowNs)), PID: ctx.PID, Kind: kind})
		}
	}
	// execute_* entries; exits are delivered via uretprobe-path firings,
	// which native hooks do not see — the shim instead brackets the call,
	// modeled here by hooking both firings through entry+take symbols.
	r.hook(rclcpp.SymExecuteTimer, plain(trace.KindTimerCBStart))
	r.hook(rclcpp.SymExecuteSubscription, plain(trace.KindSubCBStart))
	r.hook(rclcpp.SymExecuteService, plain(trace.KindServiceCBStart))
	r.hook(rclcpp.SymExecuteClient, plain(trace.KindClientCBStart))

	takeHook := func(kind trace.Kind) func(*ebpf.ExecContext) {
		return func(ctx *ebpf.ExecContext) {
			e := trace.Event{Time: simTime(uint64(ctx.NowNs)), PID: ctx.PID, Kind: kind}
			// The shim sees the arguments directly (it *is* the function),
			// so no probe_read dance is needed — but also no verifier
			// protects the traced process from the shim.
			if ctx.Mem != nil && len(ctx.Words) >= 1 {
				if cbid, err := ctx.Mem.ReadU64(umem.Addr(ctx.Words[0]) + rmw.EntityCBIDOff); err == nil {
					e.CBID = cbid
				}
				if p, err := ctx.Mem.ReadU64(umem.Addr(ctx.Words[0]) + rmw.EntityTopicPtrOff); err == nil {
					if s, err := ctx.Mem.ReadCString(umem.Addr(p), 64); err == nil {
						e.Topic = s
					}
				}
			}
			r.emit(e)
		}
	}
	r.hook(rmw.SymTakeInt, takeHook(trace.KindTakeInt))
	r.hook(rmw.SymTakeRequest, takeHook(trace.KindTakeRequest))
	r.hook(rmw.SymTakeResponse, takeHook(trace.KindTakeResponse))

	r.hook(dds.SymWrite, func(ctx *ebpf.ExecContext) {
		e := trace.Event{Time: simTime(uint64(ctx.NowNs)), PID: ctx.PID, Kind: trace.KindDDSWrite}
		if len(ctx.Words) >= 3 {
			e.SrcTS = int64(ctx.Words[2])
		}
		if ctx.Mem != nil && len(ctx.Words) >= 1 {
			if p, err := ctx.Mem.ReadU64(umem.Addr(ctx.Words[0])); err == nil {
				if s, err := ctx.Mem.ReadCString(umem.Addr(p), 64); err == nil {
					e.Topic = s
				}
			}
		}
		r.emit(e)
	})
}

// CostNs returns the simulated overhead spent in the shims.
func (r *RedirectTracer) CostNs() float64 { return r.rt.NativeCostNs() }
