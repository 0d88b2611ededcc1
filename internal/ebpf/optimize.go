package ebpf

import "encoding/binary"

// Load-time optimization: superinstruction selection over the lowered
// program.
//
// decode (decode.go) lowers a program once into per-instruction ops and a
// pc-indexed slot array of fused runs; optimize then rewrites that form
// once, before it is installed, through four passes:
//
//  1. constant folding: register moves from constant-valued registers
//     (R10 is always the frame top) rewrite to immediate loads, and
//     mov/add/sub immediate chains on one register collapse into a
//     single load — which is what turns the "r2 = r10; r2 += off"
//     helper-address arithmetic into decodable constants;
//  2. helper-call fusion: the mov ladders that set up helper arguments
//     are absorbed into one dedicated pattern op per call — direct map
//     lookups/updates on the devirtualized *HashMap, perf_event_output
//     with a pre-computed frame range (opEmitRecord), probe_read with a
//     pre-computed destination, and inline no-argument helpers. Argument
//     registers R1–R5 are dead after a call (the verifier marks them
//     uninitialized), so eliding their writes is unobservable;
//  3. pair/ladder peepholes: ctx-load + stack-store pairs, helper-call +
//     stack-store pairs, and immediate-store ladders (the record headers
//     every tracer program builds, opStoreRunImm) each become one op
//     with pre-rendered bytes where possible;
//  4. block compaction: reachable slots are re-emitted densely in source
//     order (so a conditional jump stays adjacent to its fallthrough
//     successor), unconditional jumps are threaded into their
//     predecessors, and the unreachable mid-run slots of the lowered
//     layout disappear.
//
// Every pattern op records the original instruction range it covers
// (dop.pc, dop.w) and is emitted only once its operands are proven: its
// frame range lies inside the stack, its template exists, and its call
// site is bound to a map or perf buffer. The VM runs it without
// re-checking any of that. The retired-instruction count is preserved op
// for op, so the overhead accounting stays bit-identical to the tests'
// reference interpreter.

// maxPatternWeight bounds how many original instructions one fused
// pattern op may cover: the weight travels in a uint8.
const maxPatternWeight = 255

// optimize builds the installed dispatch form from the pc-indexed layout
// decode fused. It is total: blocks where no pattern applies re-fuse
// exactly as decode laid them out, so the result is always a valid
// dispatch form.
func optimize(slots []dinsn, calls []dcall) *decodedProgram {
	ndp := &decodedProgram{calls: calls}

	// thread follows a chain of unconditional jumps from a run's target.
	// A run reaching a Ja always retires it, so folding the jump into the
	// run's target keeps the retired-instruction count exact by adding
	// one retire per skipped slot.
	thread := func(tgt int32) (int32, int32) {
		extra := int32(0)
		for int(tgt) >= 0 && int(tgt) < len(slots) && slots[tgt].op == OpJa && extra < int32(len(slots)) {
			tgt = slots[tgt].tgt
			extra++
		}
		return tgt, extra
	}

	// Reachable slots, discovered over explicit control edges (threaded
	// run targets, jump targets, conditional fallthroughs). Mid-run zero
	// slots, dead blocks, and jump-threaded Ja slots are never visited
	// and vanish from the compacted layout. A conditional jump's
	// fallthrough is always reachable, so source order keeps it adjacent.
	// newIdx maps each slot to its compacted index; -1 marks it unreached.
	newIdx := make([]int32, len(slots))
	for i := range newIdx {
		newIdx[i] = -1
	}
	work := []int{0}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if i < 0 || i >= len(slots) || newIdx[i] >= 0 {
			continue
		}
		newIdx[i] = 0
		in := &slots[i]
		switch {
		case in.op == opRunFused:
			// A run whose threaded successor is the program exit folds it
			// (opRunExit) and stops needing the slot at all.
			if tgt, _ := thread(in.tgt); int(tgt) < 0 || int(tgt) >= len(slots) ||
				slots[tgt].op != OpExit {
				work = append(work, int(tgt))
			}
		case in.op == OpJa:
			work = append(work, int(in.tgt))
		case isJump(in.op): // conditional: target and fallthrough
			work = append(work, int(in.tgt), i+1)
		}
	}

	// Number the reachable slots in source order, then emit, remapping
	// every control edge.
	n := int32(0)
	for i := range newIdx {
		if newIdx[i] >= 0 {
			newIdx[i] = n
			n++
		}
	}
	ndp.insns = make([]dinsn, 0, n)
	for i, in := range slots {
		if newIdx[i] < 0 {
			continue
		}
		switch {
		case in.op == opRunFused:
			run := optimizeRun(in.run, calls, ndp)
			tgt, extra := thread(in.tgt)
			if int(tgt) >= 0 && int(tgt) < len(slots) && slots[tgt].op == OpExit {
				ndp.insns = append(ndp.insns, dinsn{
					op: opRunExit, retire: in.retire + extra + 1, run: run,
				})
				continue
			}
			ndp.insns = append(ndp.insns, dinsn{
				op: opRunFused, tgt: remap(newIdx, tgt), retire: in.retire + extra, run: run,
			})
		case isJump(in.op):
			in.tgt = remap(newIdx, in.tgt)
			ndp.insns = append(ndp.insns, in)
		default: // OpExit, or a corrupt slot that will error identically
			ndp.insns = append(ndp.insns, in)
		}
	}
	return ndp
}

// remap translates a lowered slot index into the compacted layout. An
// edge into an unmapped slot (impossible for verified programs) keeps an
// out-of-range target so the dispatch loop reports it rather than
// executing the wrong block.
func remap(newIdx []int32, tgt int32) int32 {
	if int(tgt) >= 0 && int(tgt) < len(newIdx) && newIdx[tgt] >= 0 {
		return newIdx[tgt]
	}
	return int32(len(newIdx)) + 1
}

// optimizeRun rewrites one fused straight-line run through the load-time
// passes: constant folding, helper-call fusion, and pair/ladder
// peepholes. The result covers exactly the same original instruction
// range, with each op's (pc, w) naming the instructions it replaces.
// run aliases decode's per-instruction lowering, so the first pass copies
// it and the later ones rewrite that copy in place.
func optimizeRun(run []dop, calls []dcall, ndp *decodedProgram) []dop {
	folded := foldConstants(run)
	fused := fuseCalls(folded, calls)
	return fusePairs(fused, ndp)
}

// regIsArg reports whether r is one of the caller-clobbered helper
// argument registers R1–R5, whose values are unobservable after a call.
func regIsArg(r uint8) bool { return r >= 1 && r <= 5 }

// foldConstants propagates compile-time register constants through a
// straight-line run: moves from constant registers become immediate
// loads (R10 is always StackSize, so stack-address arithmetic folds),
// and mov/add/sub-immediate chains on one register collapse into a
// single immediate load carrying the combined retire weight.
func foldConstants(run []dop) []dop {
	out := make([]dop, 0, len(run))
	var known [decodedRegs]bool
	var val [decodedRegs]uint64
	known[R10] = true
	val[R10] = StackSize

	invalidate := func(r uint8) { known[r&regIdxMask] = false }
	for _, d := range run {
		if d.op == OpMovReg && known[d.src&regIdxMask] {
			d.op = OpMovImm
			d.imm = val[d.src&regIdxMask]
		}
		switch d.op {
		case OpMovImm:
			// A mov over the immediately preceding immediate load of the
			// same register makes the earlier value unobservable.
			if n := len(out); n > 0 && out[n-1].op == OpMovImm && out[n-1].dst == d.dst &&
				int(out[n-1].w)+int(d.w) <= maxPatternWeight {
				out[n-1].imm = d.imm
				out[n-1].w += d.w
			} else {
				out = append(out, d)
			}
			known[d.dst&regIdxMask] = true
			val[d.dst&regIdxMask] = d.imm
			continue
		case OpAddImm, OpSubImm:
			delta := d.imm
			if d.op == OpSubImm {
				delta = -d.imm
			}
			if n := len(out); n > 0 && out[n-1].op == OpMovImm && out[n-1].dst == d.dst &&
				int(out[n-1].w)+int(d.w) <= maxPatternWeight {
				out[n-1].imm += delta
				out[n-1].w += d.w
				known[d.dst&regIdxMask] = true
				val[d.dst&regIdxMask] = out[n-1].imm
				continue
			}
			if known[d.dst&regIdxMask] {
				val[d.dst&regIdxMask] += delta
			}
			out = append(out, d)
			continue
		}
		// Any other register write loses constant tracking.
		switch d.op {
		case OpMovReg, OpAddReg, OpSubReg, OpMulImm, OpMulReg, OpDivImm, OpDivReg,
			OpModImm, OpModReg, OpAndImm, OpAndReg, OpOrImm, OpOrReg,
			OpXorImm, OpXorReg, OpLshImm, OpRshImm, OpNeg,
			OpLdxCtx, opLdxFP8, opLdxFP4, opLdxFP2, opLdxFP1:
			invalidate(d.dst)
		case OpCall:
			for r := R0; r <= R5; r++ {
				invalidate(uint8(r))
			}
		}
		out = append(out, d)
	}
	return out
}

// argDef describes where a helper argument register gets its value in
// the mov window immediately preceding a call.
type argDef struct {
	imm    bool
	immVal uint64
	reg    uint8
}

// fuseCalls absorbs the mov ladders that set up helper arguments into
// one pattern op per call site. Only moves into R1–R5 directly preceding
// the call are absorbed — their targets are dead after the call, so
// skipping the register writes is unobservable — and an argument with no
// absorbed definition is simply read from its register at execution
// time.
func fuseCalls(run []dop, calls []dcall) []dop {
	out := run[:0] // in place: the output never runs ahead of the input
	for _, d := range run {
		if d.op != OpCall {
			out = append(out, d)
			continue
		}
		c := &calls[d.tgt]

		// No-argument helpers inline without any mov absorption. dst and
		// size are cleared for the result-forwarding encoding.
		switch c.helper {
		case HelperKtimeGetNs, HelperGetCurrentPid, HelperGetSmpProcID:
			switch c.helper {
			case HelperKtimeGetNs:
				d.op = opCallTime
			case HelperGetCurrentPid:
				d.op = opCallPid
			default:
				d.op = opCallCPU
			}
			d.dst, d.src, d.size = 0, 0, 0
			out = append(out, d)
			continue
		}

		// Walk the absorbable mov window backwards from the call.
		defs := map[uint8]argDef{}
		k := len(out)
		weight := int(d.w)
		for k > 0 {
			m := out[k-1]
			if !(m.op == OpMovImm || m.op == OpMovReg) || !regIsArg(m.dst) {
				break
			}
			if m.op == OpMovReg && regIsArg(m.src) {
				break // source may itself be an elided definition
			}
			if weight+int(m.w) > maxPatternWeight {
				break
			}
			if _, dup := defs[m.dst]; !dup { // keep the latest definition
				if m.op == OpMovImm {
					defs[m.dst] = argDef{imm: true, immVal: m.imm}
				} else {
					defs[m.dst] = argDef{reg: m.src}
				}
			}
			weight += int(m.w)
			k--
		}

		argSrc := func(r uint8) argDef {
			if def, ok := defs[r]; ok {
				return def
			}
			return argDef{reg: r}
		}
		constArg := func(r uint8) (uint64, bool) {
			def, ok := defs[r]
			if !ok || !def.imm {
				return 0, false
			}
			return def.immVal, true
		}

		f := dop{tgt: d.tgt, pc: d.pc, w: d.w}
		if k < len(out) {
			f.pc = out[k].pc
			f.w = uint8(weight)
		}
		fused := false
		switch c.helper {
		case HelperMapLookup, HelperMapLookupExist, HelperMapDelete:
			if c.m != nil {
				switch c.helper {
				case HelperMapLookup:
					f.op = opMapLookupFast
				case HelperMapLookupExist:
					f.op = opMapExistFast
				default:
					f.op = opMapDeleteFast
				}
				key := argSrc(uint8(R2))
				if key.imm {
					f.size, f.imm = mapKeyImm, key.immVal
				} else {
					f.src = key.reg
				}
				fused = true
			}
		case HelperMapUpdate:
			key, val := argSrc(uint8(R2)), argSrc(uint8(R3))
			if c.m != nil && !(key.imm && val.imm) { // only one immediate slot
				f.op = opMapUpdateFast
				if key.imm {
					f.size, f.imm = mapKeyImm, key.immVal
					f.dst = val.reg
				} else if val.imm {
					f.size, f.imm = mapValImm, val.immVal
					f.src = key.reg
				} else {
					f.src, f.dst = key.reg, val.reg
				}
				fused = true
			}
		case HelperPerfOutput:
			base, okB := constArg(uint8(R2))
			size, okS := constArg(uint8(R3))
			if c.pb != nil && okB && okS &&
				base < StackSize && size > 0 && size <= StackSize && base+size <= StackSize {
				f.op = opEmitRecord
				f.imm = base<<32 | size
				fused = true
			}
		case HelperProbeRead, HelperProbeReadStr:
			base, okB := constArg(uint8(R1))
			size, okS := constArg(uint8(R2))
			addr := argSrc(uint8(R3))
			if okB && okS && !addr.imm &&
				base < StackSize && size > 0 && size <= StackSize && base+size <= StackSize {
				if c.helper == HelperProbeRead {
					f.op = opProbeReadFast
				} else {
					f.op = opProbeReadStrFast
				}
				f.tgt = int32(base)
				f.imm = size
				f.src = addr.reg
				fused = true
			}
		}
		if !fused {
			out = append(out, d)
			continue
		}
		out = out[:k] // drop the absorbed movs
		out = append(out, f)
	}
	return out
}

// fusePairs combines adjacent op pairs and immediate-store ladders:
// ctx-load + frame-store, inline-helper + frame-store of R0, and runs of
// immediate frame stores over contiguous bytes, which pre-render into a
// byte template copied in one shot (opStoreRunImm).
func fusePairs(run []dop, ndp *decodedProgram) []dop {
	out := run[:0] // in place: the output never runs ahead of the input
	for i := 0; i < len(run); i++ {
		d := run[i]

		// Immediate-store ladder: >=2 contiguous stores of constants.
		if wd := stImmWidth(d.op); wd > 0 {
			end := i + 1
			hi := d.tgt + wd
			weight := int(d.w)
			for end < len(run) {
				nw := stImmWidth(run[end].op)
				if nw == 0 || run[end].tgt != hi || weight+int(run[end].w) > maxPatternWeight {
					break
				}
				hi += nw
				weight += int(run[end].w)
				end++
			}
			if end-i >= 2 && d.tgt >= 0 && int(hi) <= StackSize {
				t := make([]byte, hi-d.tgt)
				for _, s := range run[i:end] {
					off := s.tgt - d.tgt
					switch stImmWidth(s.op) {
					case 8:
						binary.LittleEndian.PutUint64(t[off:], s.imm)
					case 4:
						binary.LittleEndian.PutUint32(t[off:], uint32(s.imm))
					case 2:
						binary.LittleEndian.PutUint16(t[off:], uint16(s.imm))
					case 1:
						t[off] = byte(s.imm)
					}
				}
				out = append(out, dop{
					op: opStoreRunImm, tgt: d.tgt, imm: uint64(len(ndp.templates)),
					pc: d.pc, w: uint8(weight),
				})
				ndp.templates = append(ndp.templates, t)
				i = end - 1
				continue
			}
		}

		if i+1 < len(run) {
			n := run[i+1]
			combined := uint8(0)
			if int(d.w)+int(n.w) <= maxPatternWeight {
				combined = d.w + n.w
			}
			if combined > 0 && n.op == opStxFP8 {
				switch {
				case d.op == OpLdxCtx && n.src == d.dst:
					out = append(out, dop{op: opCtxToStack, dst: d.dst, tgt: n.tgt,
						imm: uint64(uint32(d.tgt)), pc: d.pc, w: combined})
					i++
					continue
				case d.op == opCallTime && n.src == uint8(R0):
					out = append(out, dop{op: opTimeToStack, tgt: n.tgt, pc: d.pc, w: combined})
					i++
					continue
				case d.op == opCallPid && n.src == uint8(R0):
					out = append(out, dop{op: opPidToStack, tgt: n.tgt, pc: d.pc, w: combined})
					i++
					continue
				case d.op == opCallCPU && n.src == uint8(R0):
					out = append(out, dop{op: opCPUToStack, tgt: n.tgt, pc: d.pc, w: combined})
					i++
					continue
				}
			}
			// Adjacent context loads collapse into one double load.
			if combined > 0 && d.op == OpLdxCtx && n.op == OpLdxCtx &&
				d.tgt >= 0 && n.tgt >= 0 {
				out = append(out, dop{op: opLdxCtx2, dst: d.dst, src: n.dst,
					tgt: d.tgt, imm: uint64(uint32(n.tgt)), pc: d.pc, w: combined})
				i++
				continue
			}
			// Result forwarding: a helper op followed by "rd = R0" or
			// "rd += R0" absorbs the copy into its result store.
			if combined > 0 && resultForwardable(d.op) &&
				(n.op == OpMovReg || n.op == OpAddReg) && n.src == uint8(R0) {
				d.dst = n.dst
				if n.op == OpAddReg {
					d.size |= resFwdAdd
				}
				d.w = combined
				out = append(out, d)
				i++
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// resultForwardable reports whether a pattern op leaves dst free to
// absorb a following copy/accumulate of its R0 result.
func resultForwardable(op Op) bool {
	switch op {
	case opMapLookupFast, opMapExistFast, opMapDeleteFast,
		opCallTime, opCallPid, opCallCPU,
		opProbeReadFast, opProbeReadStrFast:
		return true
	}
	return false
}
