package ebpf

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/umem"
)

// mustVerify verifies p with the given ctx words and fails the test on
// rejection.
func mustVerify(t *testing.T, p *Program, ctxWords int, maps map[int64]Map) {
	t.Helper()
	lookup := func(fd int64) Map { return maps[fd] }
	if maps == nil {
		lookup = nil
	}
	if err := Verify(p, VerifyOptions{CtxWords: ctxWords, LookupMap: lookup}); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// run decodes the verified p against maps, as Runtime.Load does, and
// runs the installed form.
func run(t *testing.T, p *Program, ctx *ExecContext, maps map[int64]Map) uint64 {
	t.Helper()
	if ctx == nil {
		ctx = &ExecContext{}
	}
	if err := decode(p, func(fd int64) Map { return maps[fd] }); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return NewVM().Run(p, ctx).R0
}

func TestALUArithmetic(t *testing.T) {
	p := NewAssembler("alu").
		MovImm(R0, 10).
		AddImm(R0, 5).
		MovImm(R2, 3).
		MulImm(R2, 7).  // 21
		AddReg(R0, R2). // 36
		SubImm(R0, 6).  // 30
		DivImm(R0, 3).  // 10
		ModImm(R0, 4).  // 2
		LshImm(R0, 4).  // 32
		RshImm(R0, 1).  // 16
		OrImm(R0, 1).   // 17
		AndImm(R0, 0xFF).
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, nil)
	if got := run(t, p, nil, nil); got != 17 {
		t.Fatalf("R0 = %d, want 17", got)
	}
}

func TestDivisionByZeroYieldsZero(t *testing.T) {
	p := NewAssembler("div0").
		MovImm(R0, 100).
		MovImm(R2, 0).
		DivReg(R0, R2).
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, nil)
	if got := run(t, p, nil, nil); got != 0 {
		t.Fatalf("100/0 = %d, want 0", got)
	}
}

func TestForwardJumps(t *testing.T) {
	// if ctx[0] == 7 then r0 = 1 else r0 = 2
	p := NewAssembler("branch").
		LdxCtx(R2, R1, 0).
		JeqImm(R2, 7, "seven").
		MovImm(R0, 2).
		Ja("out").
		Label("seven").
		MovImm(R0, 1).
		Label("out").
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, nil)
	if got := run(t, p, &ExecContext{Words: []uint64{7}}, nil); got != 1 {
		t.Fatalf("branch taken path: r0 = %d", got)
	}
	if got := run(t, p, &ExecContext{Words: []uint64{9}}, nil); got != 2 {
		t.Fatalf("fallthrough path: r0 = %d", got)
	}
}

func TestBackwardJumpRejectedByAssembler(t *testing.T) {
	a := NewAssembler("loop")
	a.Label("top").MovImm(R0, 0).Ja("top").Exit()
	if _, err := a.Assemble(); err == nil {
		t.Fatal("assembler accepted a backward jump")
	}
}

func TestUndefinedLabel(t *testing.T) {
	a := NewAssembler("bad").Ja("nowhere").Exit()
	if _, err := a.Assemble(); err == nil {
		t.Fatal("assembler accepted undefined label")
	}
}

func TestStackLoadStore(t *testing.T) {
	p := NewAssembler("stack").
		MovImm(R2, 0xABCD).
		StxStack(R10, -8, R2, 8).
		StImmStack(R10, -16, 42, 4).
		LdxStack(R0, R10, -8, 8).
		LdxStack(R3, R10, -16, 4).
		AddReg(R0, R3).
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, nil)
	if got := run(t, p, nil, nil); got != 0xABCD+42 {
		t.Fatalf("r0 = %#x", got)
	}
}

func TestVerifierRejectsUninitRead(t *testing.T) {
	p := NewAssembler("uninit").
		LdxStack(R0, R10, -8, 8). // never written
		Exit().
		MustAssemble()
	if err := Verify(p, VerifyOptions{CtxWords: 1}); err == nil {
		t.Fatal("verifier accepted read of uninitialized stack")
	}
}

func TestVerifierRejectsUninitR0AtExit(t *testing.T) {
	p := NewAssembler("noR0").Exit().MustAssemble()
	if err := Verify(p, VerifyOptions{CtxWords: 1}); err == nil {
		t.Fatal("verifier accepted exit with uninitialized r0")
	}
}

func TestVerifierRejectsStackOOB(t *testing.T) {
	for _, off := range []int32{-520, 8, -4 /* partially above fp */} {
		p := NewAssembler("oob").
			MovImm(R2, 1).
			StxStack(R10, off, R2, 8).
			MovImm(R0, 0).
			Exit().
			MustAssemble()
		if err := Verify(p, VerifyOptions{CtxWords: 1}); err == nil {
			t.Fatalf("verifier accepted stack store at offset %d", off)
		}
	}
}

func TestVerifierRejectsWriteToR10(t *testing.T) {
	p := NewAssembler("fp").MovImm(R10, 0).MovImm(R0, 0).Exit().MustAssemble()
	if err := Verify(p, VerifyOptions{CtxWords: 1}); err == nil {
		t.Fatal("verifier accepted write to frame pointer")
	}
}

func TestVerifierRejectsCtxLoadOutOfRange(t *testing.T) {
	p := NewAssembler("ctx").
		LdxCtx(R0, R1, 5).
		Exit().
		MustAssemble()
	if err := Verify(p, VerifyOptions{CtxWords: 3}); err == nil {
		t.Fatal("verifier accepted ctx load beyond declared words")
	}
}

func TestVerifierRejectsCtxLoadFromScalar(t *testing.T) {
	p := NewAssembler("ctx2").
		MovImm(R2, 0).
		LdxCtx(R0, R2, 0).
		Exit().
		MustAssemble()
	if err := Verify(p, VerifyOptions{CtxWords: 3}); err == nil {
		t.Fatal("verifier accepted ctx load through scalar register")
	}
}

func TestVerifierRejectsFallOffEnd(t *testing.T) {
	p := &Program{Name: "falloff", Insns: []Instruction{{Op: OpMovImm, Dst: R0}}}
	if err := Verify(p, VerifyOptions{CtxWords: 1}); err == nil {
		t.Fatal("verifier accepted program without exit")
	}
}

func TestVerifierRejectsPointerArithmeticOnCtx(t *testing.T) {
	p := NewAssembler("ptrmath").
		AddImm(R1, 8). // ctx pointer arithmetic unsupported
		MovImm(R0, 0).
		Exit().
		MustAssemble()
	if err := Verify(p, VerifyOptions{CtxWords: 1}); err == nil {
		t.Fatal("verifier accepted arithmetic on ctx pointer")
	}
}

func TestVerifierStateMergeAtJoin(t *testing.T) {
	// r6 is a stack pointer on one path and scalar on the other; using it
	// as a memory base after the join must be rejected.
	p := NewAssembler("join").
		LdxCtx(R2, R1, 0).
		JeqImm(R2, 0, "a").
		MovReg(R6, R10).
		Ja("use").
		Label("a").
		MovImm(R6, 123).
		Label("use").
		MovImm(R3, 1).
		StxStack(R6, -8, R3, 8).
		MovImm(R0, 0).
		Exit().
		MustAssemble()
	if err := Verify(p, VerifyOptions{CtxWords: 1}); err == nil {
		t.Fatal("verifier accepted merged pointer/scalar base")
	}
}

func TestVerifierMergeKeepsCommonStackInit(t *testing.T) {
	// Both paths initialize fp-8; reading it after the join is legal.
	p := NewAssembler("join2").
		LdxCtx(R2, R1, 0).
		JeqImm(R2, 0, "a").
		StImmStack(R10, -8, 1, 8).
		Ja("use").
		Label("a").
		StImmStack(R10, -8, 2, 8).
		Label("use").
		LdxStack(R0, R10, -8, 8).
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, nil)
}

func TestHelperMapRoundTrip(t *testing.T) {
	maps := map[int64]Map{5: NewHashMap("m", 16)}
	p := NewAssembler("map").
		MovImm(R1, 5).
		MovImm(R2, 100). // key
		MovImm(R3, 777). // value
		Call(HelperMapUpdate).
		MovImm(R1, 5).
		MovImm(R2, 100).
		Call(HelperMapLookup).
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, maps)
	if got := run(t, p, nil, maps); got != 777 {
		t.Fatalf("lookup = %d, want 777", got)
	}
}

func TestHelperMapLookupMiss(t *testing.T) {
	maps := map[int64]Map{5: NewHashMap("m", 16)}
	p := NewAssembler("miss").
		MovImm(R1, 5).
		MovImm(R2, 9).
		Call(HelperMapLookupExist).
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, maps)
	if got := run(t, p, nil, maps); got != 0 {
		t.Fatalf("exist on empty map = %d", got)
	}
}

func TestVerifierRejectsUnknownMapFD(t *testing.T) {
	maps := map[int64]Map{5: NewHashMap("m", 16)}
	p := NewAssembler("badfd").
		MovImm(R1, 99).
		MovImm(R2, 0).
		Call(HelperMapLookup).
		Exit().
		MustAssemble()
	lookup := func(fd int64) Map { return maps[fd] }
	if err := Verify(p, VerifyOptions{CtxWords: 1, LookupMap: lookup}); err == nil {
		t.Fatal("verifier accepted unknown map fd")
	}
}

func TestProbeReadFromUmem(t *testing.T) {
	space := umem.NewSpace(42)
	addr := space.AllocU64(0x1122334455667788)
	p := NewAssembler("pread").
		MovReg(R6, R10).
		AddImm(R6, -8).
		MovReg(R1, R6).
		MovImm(R2, 8).
		LdxCtx(R3, R1, 0). // bug: R1 was clobbered; see below
		Exit().
		MustAssemble()
	_ = p // The program above is intentionally wrong; build the correct one:
	p2 := NewAssembler("pread2").
		LdxCtx(R7, R1, 0). // src address from ctx first
		MovReg(R6, R10).
		AddImm(R6, -8).
		MovReg(R1, R6).
		MovImm(R2, 8).
		MovReg(R3, R7).
		Call(HelperProbeRead).
		LdxStack(R0, R10, -8, 8).
		Exit().
		MustAssemble()
	mustVerify(t, p2, 1, nil)
	ctx := &ExecContext{Words: []uint64{uint64(addr)}, Mem: space}
	if got := run(t, p2, ctx, nil); got != 0x1122334455667788 {
		t.Fatalf("probe_read got %#x", got)
	}
}

func TestProbeReadFaultZeroFills(t *testing.T) {
	space := umem.NewSpace(43)
	p := NewAssembler("fault").
		MovReg(R6, R10).
		AddImm(R6, -8).
		MovReg(R1, R6).
		MovImm(R2, 8).
		MovImm(R3, 0). // NULL
		Call(HelperProbeRead).
		MovReg(R7, R0). // fault flag
		LdxStack(R6, R10, -8, 8).
		MovReg(R0, R7).
		AddReg(R0, R6). // flag + zero-filled value = 1
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, nil)
	if got := run(t, p, &ExecContext{Mem: space}, nil); got != 1 {
		t.Fatalf("fault path r0 = %d, want 1", got)
	}
}

func TestProbeReadStr(t *testing.T) {
	space := umem.NewSpace(44)
	addr := space.AllocString("/topic")
	p := NewAssembler("preadstr").
		LdxCtx(R7, R1, 0).
		MovReg(R6, R10).
		AddImm(R6, -16).
		MovReg(R1, R6).
		MovImm(R2, 16).
		MovReg(R3, R7).
		Call(HelperProbeReadStr).
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, nil)
	ctx := &ExecContext{Words: []uint64{uint64(addr)}, Mem: space}
	if got := run(t, p, ctx, nil); got != 6 {
		t.Fatalf("probe_read_str len = %d, want 6", got)
	}
}

func TestPerfOutput(t *testing.T) {
	pb := NewPerfBuffer("events", 0, new(uint64))
	maps := map[int64]Map{7: pb}
	p := NewAssembler("perf").
		MovImm(R2, 0xCAFE).
		StxStack(R10, -8, R2, 8).
		MovImm(R1, 7).
		MovReg(R2, R10).
		AddImm(R2, -8).
		MovImm(R3, 8).
		Call(HelperPerfOutput).
		MovImm(R0, 0).
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, maps)
	run(t, p, &ExecContext{CPU: 2, NowNs: 555}, maps)
	recs := drainSorted(pb)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].CPU != 2 || recs[0].Time != 555 {
		t.Errorf("record meta = %+v", recs[0])
	}
	if got := loadSized(recs[0].Data, 8); got != 0xCAFE {
		t.Errorf("payload = %#x", got)
	}
}

func TestPerfOutputUninitializedRejected(t *testing.T) {
	pb := NewPerfBuffer("events", 0, new(uint64))
	maps := map[int64]Map{7: pb}
	p := NewAssembler("perfbad").
		MovImm(R1, 7).
		MovReg(R2, R10).
		AddImm(R2, -8).
		MovImm(R3, 8). // 8 bytes, never initialized
		Call(HelperPerfOutput).
		MovImm(R0, 0).
		Exit().
		MustAssemble()
	lookup := func(fd int64) Map { return maps[fd] }
	if err := Verify(p, VerifyOptions{CtxWords: 1, LookupMap: lookup}); err == nil {
		t.Fatal("verifier accepted perf output of uninitialized bytes")
	}
}

func TestTimeAndPidHelpers(t *testing.T) {
	p := NewAssembler("meta").
		Call(HelperKtimeGetNs).
		MovReg(R6, R0).
		Call(HelperGetCurrentPid).
		AddReg(R6, R0).
		Call(HelperGetSmpProcID).
		AddReg(R6, R0).
		MovReg(R0, R6).
		Exit().
		MustAssemble()
	mustVerify(t, p, 1, nil)
	got := run(t, p, &ExecContext{PID: 10, CPU: 3, NowNs: 1000}, nil)
	if got != 1013 {
		t.Fatalf("sum = %d, want 1013", got)
	}
}

// TestRunningUnverifiedProgramPanics checks the raw oracle refuses an
// unverified program; the runtime refuses one at Attach
// (TestAttachRequiresVerified).
func TestRunningUnverifiedProgramPanics(t *testing.T) {
	p := NewAssembler("raw").MovImm(R0, 0).Exit().MustAssemble()
	defer func() {
		if recover() == nil {
			t.Fatal("unverified run did not panic")
		}
	}()
	_, _ = (&rawVM{}).RunInterpreted(p, &ExecContext{})
}

func TestHashMapCapacity(t *testing.T) {
	m := NewHashMap("small", 2)
	if err := m.Update(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(3, 3); err == nil {
		t.Fatal("update beyond capacity succeeded")
	}
	// Overwrite of an existing key is always allowed.
	if err := m.Update(1, 10); err != nil {
		t.Fatal(err)
	}
	m.Delete(2)
	if err := m.Update(3, 3); err != nil {
		t.Fatal(err)
	}
}

func TestPerfBufferOverrun(t *testing.T) {
	pb := NewPerfBuffer("cap", 2, new(uint64))
	pb.Emit(0, 0, []byte{1})
	pb.Emit(0, 0, []byte{2})
	pb.Emit(0, 0, []byte{3})
	if l := totals(pb).Lost; l != 1 {
		t.Fatalf("lost = %d, want 1", l)
	}
	if p := totals(pb).Pending; p != 2 {
		t.Fatalf("pending = %d", p)
	}
}

// TestPerfBufferNilCounterPanics checks a perf buffer cannot be built
// without the emission counter its records' Seq comes from.
func TestPerfBufferNilCounterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPerfBuffer accepted a nil counter")
		}
	}()
	NewPerfBuffer("noseq", 0, nil)
}
