package ebpf

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// allOps flattens every fused run of the installed dispatch form.
func allOps(p *Program) []dop {
	dp := p.dp
	var out []dop
	for _, in := range dp.insns {
		out = append(out, in.run...)
	}
	return out
}

// checkInstalled asserts the invariants load establishes for p's
// installed form, which the VM relies on instead of re-checking them on
// every fire. Compaction leaves only reachable slots, so every op walked
// here can run. It reports through t.Errorf only, so a caller can count
// the violations it finds.
func checkInstalled(t testing.TB, p *Program) {
	t.Helper()
	dp := p.dp
	if dp == nil {
		t.Errorf("%q has no installed form", p.Name)
		return
	}
	inStack := func(d dop, base, size uint64) {
		if size == 0 || base > StackSize || size > StackSize-base {
			t.Errorf("%q pc %d: op %d covers stack [%d,+%d), outside [0,%d)",
				p.Name, d.pc, d.op, base, size, StackSize)
		}
	}
	call := func(d dop) dcall {
		if d.tgt < 0 || int(d.tgt) >= len(dp.calls) {
			t.Errorf("%q pc %d: op %d names call site %d of %d", p.Name, d.pc, d.op, d.tgt, len(dp.calls))
			return dcall{}
		}
		return dp.calls[d.tgt]
	}
	// The dispatch loops have no default case. Every slot reachable from
	// pc 0 must be a run, a jump or exit whose targets lie forward and in
	// range; every run op one execRun handles; every call a helper
	// callDecoded handles.
	seen := make([]bool, len(dp.insns))
	for work := []int{0}; len(work) > 0; {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[pc] {
			continue
		}
		seen[pc] = true
		in := dp.insns[pc]
		next := func(tgt int) {
			if tgt <= pc || tgt >= len(dp.insns) {
				t.Errorf("%q pc %d: slot op %d continues at pc %d of %d", p.Name, pc, in.op, tgt, len(dp.insns))
				return
			}
			work = append(work, tgt)
		}
		switch in.op {
		case opRunExit, OpExit:
		case opRunFused, OpJa:
			next(int(in.tgt))
		case OpJeqImm, OpJneImm, OpJgtImm, OpJgeImm, OpJltImm, OpJleImm,
			OpJeqReg, OpJneReg, OpJgtReg, OpJgeReg, OpJltReg, OpJleReg:
			next(int(in.tgt))
			next(pc + 1)
		default:
			t.Errorf("%q pc %d: slot op %d is no run, jump or exit", p.Name, pc, in.op)
		}
	}
	for i, c := range dp.calls {
		if c.helper < HelperMapLookup || c.helper > HelperMapLookupExist {
			t.Errorf("%q call %d names unknown helper %d", p.Name, i, c.helper)
		}
	}
	for _, in := range dp.insns {
		for _, d := range in.run {
			switch d.op {
			case OpMovImm, OpMovReg, OpAddImm, OpAddReg, OpSubImm, OpSubReg,
				OpMulImm, OpMulReg, OpDivImm, OpDivReg, OpModImm, OpModReg,
				OpAndImm, OpAndReg, OpOrImm, OpOrReg, OpXorImm, OpXorReg,
				OpLshImm, OpRshImm, OpNeg, OpLdxCtx, opLdxCtx2,
				opCallTime, opCallPid, opCallCPU:
			case OpCall:
				call(d)
			case opLdxFP8, opStxFP8, opStImmFP8,
				opTimeToStack, opPidToStack, opCPUToStack, opCtxToStack:
				inStack(d, uint64(d.tgt), 8)
			case opLdxFP4, opStxFP4, opStImmFP4:
				inStack(d, uint64(d.tgt), 4)
			case opLdxFP2, opStxFP2, opStImmFP2:
				inStack(d, uint64(d.tgt), 2)
			case opLdxFP1, opStxFP1, opStImmFP1:
				inStack(d, uint64(d.tgt), 1)
			case opStoreRunImm:
				if d.imm >= uint64(len(dp.templates)) {
					t.Errorf("%q pc %d: template %d of %d", p.Name, d.pc, d.imm, len(dp.templates))
					continue
				}
				inStack(d, uint64(d.tgt), uint64(len(dp.templates[d.imm])))
			case opProbeReadFast, opProbeReadStrFast:
				inStack(d, uint64(d.tgt), d.imm)
			case opEmitRecord:
				inStack(d, d.imm>>32, uint64(uint32(d.imm)))
				if call(d).pb == nil {
					t.Errorf("%q pc %d: opEmitRecord not bound to a perf buffer", p.Name, d.pc)
				}
			case opMapLookupFast, opMapExistFast, opMapDeleteFast, opMapUpdateFast:
				if call(d).m == nil {
					t.Errorf("%q pc %d: map op %d not bound to a map", p.Name, d.pc, d.op)
				}
			default:
				t.Errorf("%q pc %d: run op %d is not one execRun handles", p.Name, d.pc, d.op)
			}
		}
	}
}

// errCounter is a testing.TB that counts Errorf calls instead of failing.
type errCounter struct {
	testing.TB
	errs int
}

func (c *errCounter) Helper()               {}
func (c *errCounter) Errorf(string, ...any) { c.errs++ }

// TestCheckInstalledFlagsCorruption corrupts the installed form in place
// and demands checkInstalled report each corruption: a checker that never
// fires proves nothing.
func TestCheckInstalledFlagsCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		op      Op
		corrupt func(dp *decodedProgram, d *dop)
	}{
		{"emit_base_oob", opEmitRecord, func(_ *decodedProgram, d *dop) { d.imm = uint64(StackSize) << 32 }},
		{"emit_unbound", opEmitRecord, func(_ *decodedProgram, d *dop) { d.tgt = 0 }}, // call 0 is getpid
		{"ladder_bad_template", opStoreRunImm, func(_ *decodedProgram, d *dop) { d.imm = 999 }},
		{"ladder_base_oob", opStoreRunImm, func(_ *decodedProgram, d *dop) { d.tgt = StackSize - 1 }},
		{"pid_store_oob", opPidToStack, func(_ *decodedProgram, d *dop) { d.tgt = -8 }},
		{"generic_stack_op", opStoreRunImm, func(_ *decodedProgram, d *dop) { d.op = OpStImmStack }},
		{"unhandled_run_op", opStoreRunImm, func(_ *decodedProgram, d *dop) { d.op = OpExit }},
		{"unhandled_slot", opEmitRecord, func(dp *decodedProgram, _ *dop) { dp.insns[0].op = OpMovImm }},
		{"unknown_helper", opEmitRecord, func(dp *decodedProgram, d *dop) { dp.calls[d.tgt].helper = 99 }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			f := decodedFixture(t, emitterProg, 1)
			checkInstalled(t, f.prog)
			dp := f.prog.dp
			found := false
			for si := range dp.insns {
				for oi := range dp.insns[si].run {
					if dp.insns[si].run[oi].op == tc.op {
						tc.corrupt(dp, &dp.insns[si].run[oi])
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("pattern op %d not present to corrupt", tc.op)
			}
			c := &errCounter{TB: t}
			checkInstalled(c, f.prog)
			if c.errs == 0 {
				t.Fatal("corrupted installed form passed checkInstalled")
			}
		})
	}
}

func countOp(ops []dop, op Op) int {
	n := 0
	for _, d := range ops {
		if d.op == op {
			n++
		}
	}
	return n
}

func findOp(t *testing.T, ops []dop, op Op) dop {
	t.Helper()
	for _, d := range ops {
		if d.op == op {
			return d
		}
	}
	t.Fatalf("pattern op %d not produced", op)
	return dop{}
}

// emitterProg is a plainProg-shaped tracer program: record header via
// helper calls, an immediate ladder, and a perf_event_output epilogue.
func emitterProg() *Program {
	return NewAssembler("emitter").
		StImmStack(R10, -64, 77, 8). // kind
		Call(HelperGetCurrentPid).
		StxStack(R10, -56, R0, 8).
		Call(HelperKtimeGetNs).
		StxStack(R10, -48, R0, 8).
		StImmStack(R10, -40, 1, 8). // ladder: 3 contiguous immediates
		StImmStack(R10, -32, 2, 8).
		StImmStack(R10, -24, 3, 8).
		MovImm(R1, 4). // perf fd
		MovReg(R2, R10).
		AddImm(R2, -64).
		MovImm(R3, 48).
		Call(HelperPerfOutput).
		MovImm(R0, 0).
		Exit().
		MustAssemble()
}

// mapLadderProg exercises every fused map-call shape plus result
// forwarding and the double context load.
func mapLadderProg() *Program {
	return NewAssembler("map_ladder").
		LdxCtx(R6, R1, 0).
		LdxCtx(R7, R1, 1).
		// update: reg key, imm value
		MovImm(R1, 3).
		MovReg(R2, R6).
		MovImm(R3, 1).
		Call(HelperMapUpdate).
		// update: reg key, reg value
		MovImm(R1, 3).
		MovReg(R2, R6).
		MovReg(R3, R7).
		Call(HelperMapUpdate).
		// lookup: reg key, forwarded result
		MovImm(R1, 3).
		MovReg(R2, R6).
		Call(HelperMapLookup).
		MovReg(R8, R0).
		// exist: imm key, accumulated result
		MovImm(R1, 3).
		MovImm(R2, 99).
		Call(HelperMapLookupExist).
		AddReg(R8, R0).
		// delete: reg key
		MovImm(R1, 3).
		MovReg(R2, R6).
		Call(HelperMapDelete).
		// time accumulated into R8
		Call(HelperKtimeGetNs).
		AddReg(R8, R0).
		MovReg(R0, R8).
		Exit().
		MustAssemble()
}

// probeProg exercises the fused probe_read / probe_read_str patterns.
func probeProg() *Program {
	return NewAssembler("probe").
		LdxCtx(R6, R1, 0).
		MovReg(R1, R10).
		SubImm(R1, 16).
		MovImm(R2, 8).
		MovReg(R3, R6).
		Call(HelperProbeRead).
		MovReg(R7, R0). // forwarded fault flag
		MovReg(R1, R10).
		SubImm(R1, 48).
		MovImm(R2, 32).
		MovReg(R3, R6).
		Call(HelperProbeReadStr).
		AddReg(R7, R0).
		MovReg(R0, R7).
		Exit().
		MustAssemble()
}

// TestTier1PatternLowering is the decode-table test for every pattern
// op: each construct the tracers rely on lowers to its dedicated
// superinstruction, with the retire weights covering the whole program.
func TestTier1PatternLowering(t *testing.T) {
	cases := []struct {
		name     string
		build    func() *Program
		ctxWords int
		want     map[Op]int // op -> minimum count
	}{
		{"emitter", emitterProg, 1, map[Op]int{
			opPidToStack:  1,
			opTimeToStack: 1,
			opStoreRunImm: 1,
			opEmitRecord:  1,
		}},
		{"map_ladder", mapLadderProg, 2, map[Op]int{
			opLdxCtx2:       1,
			opMapUpdateFast: 2,
			opMapLookupFast: 1,
			opMapExistFast:  1,
			opMapDeleteFast: 1,
			opCallTime:      1,
		}},
		{"probe", probeProg, 1, map[Op]int{
			opProbeReadFast:    1,
			opProbeReadStrFast: 1,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := decodedFixture(t, tc.build, tc.ctxWords)
			ops := allOps(f.prog)
			for op, min := range tc.want {
				if got := countOp(ops, op); got < min {
					t.Errorf("want >=%d of pattern op %d, got %d (ops: %+v)", min, op, got, ops)
				}
			}
			// Retire weights must cover the whole program, slot for slot.
			dp := f.prog.dp
			total := 0
			for _, in := range dp.insns {
				if in.op == opRunFused || in.op == opRunExit {
					total += int(in.retire)
					w := 0
					for _, d := range in.run {
						w += int(d.w)
					}
					extra := int(in.retire) - w // threaded Ja + folded exit
					if extra < 0 {
						t.Errorf("run retire %d below op weights %d", in.retire, w)
					}
				} else {
					total++
				}
			}
			if total != len(f.prog.Insns) {
				t.Errorf("retire accounting covers %d insns, program has %d", total, len(f.prog.Insns))
			}
		})
	}
}

// TestTier1PatternDetails pins the operand encoding of the key patterns.
func TestTier1PatternDetails(t *testing.T) {
	f := decodedFixture(t, emitterProg, 1)
	checkInstalled(t, f.prog)
	ops := allOps(f.prog)

	emit := findOp(t, ops, opEmitRecord)
	if base, size := emit.imm>>32, uint32(emit.imm); base != StackSize-64 || size != 48 {
		t.Fatalf("opEmitRecord range = (%d,%d), want (%d,48)", base, size, StackSize-64)
	}
	if emit.w != 5 { // 3 movs (one folded from mov+add) + call
		t.Fatalf("opEmitRecord weight = %d, want 5", emit.w)
	}

	ladder := findOp(t, ops, opStoreRunImm)
	dp := f.prog.dp
	tmpl := dp.templates[ladder.imm]
	want := make([]byte, 24)
	want[0], want[8], want[16] = 1, 2, 3
	if !bytes.Equal(tmpl, want) {
		t.Fatalf("ladder template = %v, want %v", tmpl, want)
	}
	if ladder.tgt != StackSize-40 {
		t.Fatalf("ladder base = %d, want %d", ladder.tgt, StackSize-40)
	}

	// The single-slot program folds its exit into the run.
	if len(dp.insns) != 1 || dp.insns[0].op != opRunExit {
		t.Fatalf("emitter should compact to one opRunExit slot, got %d slots (op %d)",
			len(dp.insns), dp.insns[0].op)
	}

	f2 := decodedFixture(t, mapLadderProg, 2)
	checkInstalled(t, f2.prog)
	ops2 := allOps(f2.prog)
	look := findOp(t, ops2, opMapLookupFast)
	if look.dst != uint8(R8) || look.size&resFwdAdd != 0 {
		t.Fatalf("lookup result not copy-forwarded to r8: %+v", look)
	}
	exist := findOp(t, ops2, opMapExistFast)
	if exist.size&mapKeyImm == 0 || exist.imm != 99 || exist.size&resFwdAdd == 0 || exist.dst != uint8(R8) {
		t.Fatalf("exist not fused as imm-key add-forward: %+v", exist)
	}
	ktime := findOp(t, ops2, opCallTime)
	if ktime.size&resFwdAdd == 0 || ktime.dst != uint8(R8) {
		t.Fatalf("ktime result not add-forwarded: %+v", ktime)
	}
}

// TestTier1Equivalence runs the pattern-heavy programs raw and decoded
// (the shared runEquiv helper) over a spread of contexts.
func TestTier1Equivalence(t *testing.T) {
	sp, addr := equivSpace()
	runEquiv(t, "emitter", emitterProg, 1, []*ExecContext{
		{PID: 9, CPU: 1, NowNs: 100, Words: []uint64{5}},
		{PID: 10, CPU: 0, NowNs: 200, Words: []uint64{0}},
	})
	runEquiv(t, "map_ladder", mapLadderProg, 2, []*ExecContext{
		{PID: 1, NowNs: 10, Words: []uint64{7, 70}},
		{PID: 2, NowNs: 20, Words: []uint64{99, 1}},
		{PID: 3, NowNs: 30, Words: []uint64{7, 2}},
	})
	runEquiv(t, "probe", probeProg, 1, []*ExecContext{
		{PID: 1, NowNs: 1, Words: []uint64{addr}, Mem: sp},
		{PID: 2, NowNs: 2, Words: []uint64{0xdead_0000}, Mem: sp}, // faulting address
		{PID: 3, NowNs: 3, Words: []uint64{addr}},                 // nil Mem
	})
}

// branchyProg returns a program whose two branch bodies are selected by
// ctx word 0, for layout tests.
func branchyProg() *Program {
	return NewAssembler("branchy").
		LdxCtx(R6, R1, 0).
		JgtImm(R6, 10, "big").
		MovImm(R0, 1).
		Ja("end").
		Label("big").
		MovImm(R0, 2).
		Label("end").
		Exit().
		MustAssemble()
}

// TestTier1BlockReorderCompacts checks that the installed layout is
// dense (no unreachable zero slots), keeps the blocks in source order so
// the conditional jump sits directly ahead of its fallthrough, threads
// the unconditional jump, and still computes the same results.
func TestTier1BlockReorderCompacts(t *testing.T) {
	rt := NewRuntime(func() int64 { return 1 }, nil)
	p := branchyProg()
	if err := rt.Load(p, 1); err != nil {
		t.Fatal(err)
	}
	dp := p.dp
	if len(dp.insns) >= len(p.Insns) {
		t.Fatalf("layout not compacted: %d slots for %d instructions", len(dp.insns), len(p.Insns))
	}
	for i, in := range dp.insns {
		if in.op == OpInvalid {
			t.Fatalf("slot %d is a zero slot", i)
		}
		if in.op == OpJa {
			t.Fatalf("slot %d is an unthreaded Ja", i)
		}
	}
	// The fallthrough block (MovImm R0, 1) follows the jump directly,
	// ahead of the jump's target block (MovImm R0, 2).
	jumpAt, fallAt, takenAt := -1, -1, -1
	for i, in := range dp.insns {
		if in.op == OpJgtImm {
			jumpAt = i
		}
		for _, d := range in.run {
			if d.op == OpMovImm && d.dst == uint8(R0) {
				if d.imm == 1 {
					fallAt = i
				}
				if d.imm == 2 {
					takenAt = i
				}
			}
		}
	}
	if jumpAt < 0 || fallAt != jumpAt+1 || takenAt <= fallAt {
		t.Fatalf("jump at %d, fallthrough at %d, target at %d; want source order", jumpAt, fallAt, takenAt)
	}
	// Both paths still compute the same results as the raw interpreter.
	ref, vm := &rawVM{}, NewVM()
	for _, w := range []uint64{0, 5, 11, 100} {
		raw, err := ref.RunInterpreted(p, &ExecContext{Words: []uint64{w}})
		if err != nil {
			t.Fatal(err)
		}
		got := vm.Run(p, &ExecContext{Words: []uint64{w}})
		if raw != got {
			t.Fatalf("word %d: decoded %+v, raw %+v", w, got, raw)
		}
	}
}

// FuzzDecodeEquivalence drives the random-program generator from fuzz
// input and demands that any program the verifier accepts produces
// identical results, map contents, and perf records through the raw
// interpreter and the decoded form.
func FuzzDecodeEquivalence(f *testing.F) {
	f.Add(uint64(10), uint64(7), uint64(40))
	f.Add(uint64(12), uint64(0), uint64(1))
	f.Add(uint64(22), uint64(1<<40), uint64(3))
	f.Add(uint64(33), uint64(3), uint64(512))
	f.Add(uint64(94), uint64(1), uint64(2))
	f.Fuzz(func(t *testing.T, seed, w0, w1 uint64) {
		rng := sim.NewRNG(seed)
		p := randomProgram(rng)

		type world struct {
			hash *HashMap
			pb   *PerfBuffer
			maps map[int64]Map
			prog *Program
		}
		mkWorld := func() *world {
			w := &world{hash: NewHashMap("h", 64), pb: NewPerfBuffer("p", 0, new(uint64))}
			w.maps = map[int64]Map{1: w.hash, 2: w.pb}
			w.prog = &Program{Name: p.Name, Insns: p.Insns}
			w.hash.Update(3, 33)
			return w
		}
		raw, dec := mkWorld(), mkWorld()
		for _, w := range []*world{raw, dec} {
			maps := w.maps
			if err := Verify(w.prog, VerifyOptions{CtxWords: 4, LookupMap: func(fd int64) Map { return maps[fd] }}); err != nil {
				t.Skip() // rejected programs have no behavior to compare
			}
		}
		if err := decode(dec.prog, func(fd int64) Map { return dec.maps[fd] }); err != nil {
			t.Fatalf("decode: %v", err)
		}
		checkInstalled(t, dec.prog)

		ctx := func() *ExecContext {
			return &ExecContext{PID: 7, CPU: 1, NowNs: 1234,
				Words: []uint64{w0, w1, w0 % 97, w1 ^ w0}}
		}
		rres, rerr := (&rawVM{maps: raw.maps}).RunInterpreted(raw.prog, ctx())
		res := NewVM().Run(dec.prog, ctx())
		if rerr != nil {
			t.Fatalf("decoded ran, raw error %v\nprogram: %v", rerr, p.Insns)
		}
		if res != rres {
			t.Fatalf("decoded result %+v, raw %+v\nprogram: %v", res, rres, p.Insns)
		}
		state := func(w *world) (map[uint64]uint64, []PerfRecord) {
			h := map[uint64]uint64{}
			for _, k := range w.hash.Keys() {
				v, _ := w.hash.Lookup(k)
				h[k] = v
			}
			return h, drainSorted(w.pb)
		}
		rh, rr := state(raw)
		h, recs := state(dec)
		if !reflect.DeepEqual(rh, h) {
			t.Fatalf("decoded hash state %v, raw %v\nprogram: %v", h, rh, p.Insns)
		}
		if !reflect.DeepEqual(rr, recs) {
			t.Fatalf("decoded perf records %v, raw %v\nprogram: %v", recs, rr, p.Insns)
		}
	})
}
