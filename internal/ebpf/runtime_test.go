package ebpf

import (
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/umem"
)

func newTestRuntime() (*Runtime, map[uint32]*umem.Space) {
	spaces := make(map[uint32]*umem.Space)
	clockNow := int64(0)
	rt := NewRuntime(func() int64 { return clockNow }, func(pid uint32) *umem.Space {
		return spaces[pid]
	})
	return rt, spaces
}

// counterProg emits an 8-byte record with ctx[0] into the perf buffer.
func counterProg(t *testing.T, rt *Runtime, pbFD int64) *Program {
	t.Helper()
	p := NewAssembler("counter").
		LdxCtx(R2, R1, 0).
		StxStack(R10, -8, R2, 8).
		MovImm(R1, pbFD).
		MovReg(R2, R10).
		AddImm(R2, -8).
		MovImm(R3, 8).
		Call(HelperPerfOutput).
		MovImm(R0, 0).
		Exit().
		MustAssemble()
	if err := rt.Load(p, 2); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUprobeDispatch(t *testing.T) {
	rt, _ := newTestRuntime()
	pb := NewPerfBuffer("out", 0, new(uint64))
	fd := rt.RegisterMap(pb)
	p := counterProg(t, rt, fd)
	sym := Symbol{Lib: "rclcpp", Func: "execute_timer"}
	if _, err := rt.AttachUprobe(sym, p); err != nil {
		t.Fatal(err)
	}

	rt.Site(sym).FireEntry(100, 0, 0xAA)
	rt.Site(Symbol{Lib: "rclcpp", Func: "other"}).FireEntry(100, 0, 0xBB) // not attached

	recs := drainSorted(pb)
	if len(recs) != 1 {
		t.Fatalf("fired %d records, want 1", len(recs))
	}
	if got := loadSized(recs[0].Data, 8); got != 0xAA {
		t.Fatalf("payload = %#x", got)
	}
}

func TestUretprobeSeesReturnValue(t *testing.T) {
	rt, _ := newTestRuntime()
	pb := NewPerfBuffer("out", 0, new(uint64))
	fd := rt.RegisterMap(pb)
	p := counterProg(t, rt, fd) // emits ctx[0], which is the return value
	sym := Symbol{Lib: "rclcpp", Func: "take_type_erased_response"}
	if _, err := rt.AttachUretprobe(sym, p); err != nil {
		t.Fatal(err)
	}
	rt.Site(sym).FireReturn(7, 1, 1 /* ret */, 0x99 /* arg */)
	recs := drainSorted(pb)
	if len(recs) != 1 || loadSized(recs[0].Data, 8) != 1 {
		t.Fatalf("uretprobe records = %v", recs)
	}
}

func TestTracepointDispatchAndDetach(t *testing.T) {
	rt, _ := newTestRuntime()
	pb := NewPerfBuffer("out", 0, new(uint64))
	fd := rt.RegisterMap(pb)
	p := counterProg(t, rt, fd)
	id, err := rt.AttachTracepoint("sched:sched_switch", p)
	if err != nil {
		t.Fatal(err)
	}
	tp := rt.TracepointSiteFor("sched:sched_switch")
	tp.Fire(0, 11, 22)
	if got := len(drainSorted(pb)); got != 1 {
		t.Fatalf("records = %d", got)
	}
	if !rt.Detach(id) {
		t.Fatal("detach failed")
	}
	// The site resolved before the detach must see it on its next fire.
	tp.Fire(0, 11, 22)
	if got := len(drainSorted(pb)); got != 0 {
		t.Fatalf("records after detach = %d", got)
	}
}

// TestAttachRequiresVerified checks Attach refuses a program without the
// form Load installs: one never verified, and one verified but never
// decoded, which would have no form to run on its first fire.
func TestAttachRequiresVerified(t *testing.T) {
	rt, _ := newTestRuntime()
	p := NewAssembler("raw").MovImm(R0, 0).Exit().MustAssemble()
	if _, err := rt.AttachUprobe(Symbol{"l", "f"}, p); err == nil {
		t.Fatal("attach of unverified program succeeded")
	}
	if err := Verify(p, VerifyOptions{CtxWords: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := rt.AttachUprobe(Symbol{"l", "f"}, p)
	if err == nil || !strings.Contains(err.Error(), "not loaded") {
		t.Fatalf("attach of verified but unloaded program: err %v, want \"not loaded\"", err)
	}
}

// TestFailedReloadKeepsInstalledForm checks a Load that fails
// verification leaves an attached program its installed form, so the
// next fire still runs it.
func TestFailedReloadKeepsInstalledForm(t *testing.T) {
	rt, _ := newTestRuntime()
	p := NewAssembler("word1").LdxCtx(R0, R1, 1).Exit().MustAssemble()
	if err := rt.Load(p, 2); err != nil {
		t.Fatal(err)
	}
	sym := Symbol{Lib: "l", Func: "f"}
	if _, err := rt.AttachUprobe(sym, p); err != nil {
		t.Fatal(err)
	}
	if err := rt.Load(p, 1); err == nil {
		t.Fatal("Load accepted a ctx word beyond the attach point's")
	}
	rt.Site(sym).FireEntry(1, 0, 5, 6)
	if st := rt.Stats(); st.Runs != 1 || st.Insns != 2 {
		t.Fatalf("stats %+v after a failed reload, want one 2-insn run", st)
	}
}

func TestRuntimeStatsAccumulate(t *testing.T) {
	rt, _ := newTestRuntime()
	pb := NewPerfBuffer("out", 0, new(uint64))
	fd := rt.RegisterMap(pb)
	p := counterProg(t, rt, fd)
	sym := Symbol{Lib: "x", Func: "y"}
	if _, err := rt.AttachUprobe(sym, p); err != nil {
		t.Fatal(err)
	}
	site := rt.Site(sym)
	for i := 0; i < 5; i++ {
		site.FireEntry(1, 0, uint64(i))
	}
	st := rt.Stats()
	if st.Runs != 5 {
		t.Fatalf("runs = %d", st.Runs)
	}
	if st.Insns == 0 || rt.CostNs() == 0 {
		t.Fatal("no instruction accounting")
	}
}

func TestSrcTSEntryExitTechnique(t *testing.T) {
	// Reproduces the paper's source-timestamp technique end to end: the
	// entry probe stores the address of the srcTS out-parameter in a hash
	// map keyed by PID; the middleware then writes the value; the exit
	// probe looks the address up, probe_reads it, and emits it.
	rt, spaces := newTestRuntime()
	pidToAddr := NewHashMap("srcts_addr", 64)
	addrFD := rt.RegisterMap(pidToAddr)
	pb := NewPerfBuffer("events", 0, new(uint64))
	pbFD := rt.RegisterMap(pb)

	entry := NewAssembler("take_entry").
		LdxCtx(R6, R1, 2). // arg2 = &srcTS
		Call(HelperGetCurrentPid).
		MovReg(R2, R0). // key = pid
		MovImm(R1, addrFD).
		MovReg(R3, R6).
		Call(HelperMapUpdate).
		MovImm(R0, 0).
		Exit().
		MustAssemble()
	if err := rt.Load(entry, 3); err != nil {
		t.Fatal(err)
	}

	exit := NewAssembler("take_exit").
		Call(HelperGetCurrentPid).
		MovReg(R2, R0).
		MovImm(R1, addrFD).
		Call(HelperMapLookup).
		JneImm(R0, 0, "have").
		MovImm(R0, 0).
		Exit().
		Label("have").
		MovReg(R7, R0). // addr
		MovReg(R1, R10).
		AddImm(R1, -8).
		MovImm(R2, 8).
		MovReg(R3, R7).
		Call(HelperProbeRead).
		MovImm(R1, pbFD).
		MovReg(R2, R10).
		AddImm(R2, -8).
		MovImm(R3, 8).
		Call(HelperPerfOutput).
		MovImm(R0, 0).
		Exit().
		MustAssemble()
	if err := rt.Load(exit, 1); err != nil {
		t.Fatal(err)
	}

	sym := Symbol{Lib: "rmw_cyclonedds_cpp", Func: "rmw_take_int"}
	if _, err := rt.AttachUprobe(sym, entry); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AttachUretprobe(sym, exit); err != nil {
		t.Fatal(err)
	}

	const pid = 321
	space := umem.NewSpace(pid)
	spaces[pid] = space
	srcTSAddr := space.AllocU64(0) // out-param, not yet filled

	// Middleware calls rmw_take_int(sub, msg, &srcTS):
	site := rt.Site(sym)
	site.FireEntry(pid, 0, 0, 0, uint64(srcTSAddr))
	// ... DDS determines the source timestamp during the call:
	space.WriteU64(srcTSAddr, 123456789)
	// ... and the function returns:
	site.FireReturn(pid, 0, 1)

	recs := drainSorted(pb)
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	if got := loadSized(recs[0].Data, 8); got != 123456789 {
		t.Fatalf("srcTS = %d, want 123456789", got)
	}
}
