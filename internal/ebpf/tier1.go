package ebpf

import (
	"encoding/binary"
	"sort"
	"sync/atomic"
)

// Tier-1 re-decode: profile-guided superinstruction selection.
//
// Tier 0 (decode.go) lowers a program once at load time and counts, per
// fused-run slot, how often the block executes. When the program crosses
// its hotness threshold — or on an explicit Runtime.Reoptimize — the
// program is re-decoded from the tier-0 per-instruction ops using those
// counts:
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
//  4. block compaction: reachable slots are re-emitted densely, hottest
//     chains first (a conditional jump stays adjacent to its fallthrough
//     successor), and the unreachable zero slots of the tier-0 layout
//     disappear.
//
// Every pattern op records the original instruction range it covers
// (dop.pc, dop.w); its runtime guard failing falls back to executing the
// tier-0 ops of exactly that range, and the retired-instruction count is
// preserved either way, so the overhead accounting stays bit-identical
// to the reference interpreter.

// defaultHotThreshold seeds Runtime.hotThreshold for new runtimes: the
// tier-0 run count at which a program is promoted to tier 1.
var defaultHotThreshold atomic.Uint64

func init() { defaultHotThreshold.Store(512) }

// DefaultHotThreshold returns the tier-0 run count at which programs
// loaded by new runtimes are automatically re-decoded into tier 1.
func DefaultHotThreshold() uint64 { return defaultHotThreshold.Load() }

// SetDefaultHotThreshold sets the automatic tier-1 promotion threshold
// for runtimes created afterwards and returns the previous value. 0
// disables automatic promotion. Equivalence tests use it to force a
// whole session onto one tier.
func SetDefaultHotThreshold(n uint64) uint64 { return defaultHotThreshold.Swap(n) }

// maxPatternWeight bounds how many original instructions one fused
// pattern op may cover: the weight travels in a uint8.
const maxPatternWeight = 255

// Tier-2 trace formation thresholds: a conditional jump qualifies as a
// trace guard only once its edge profile is both warm (traceMinHits
// executions observed) and decisive (the dominant direction holds at
// least traceBiasNum/traceBiasDen of them). Below either bar the branch
// stays a plain tier-1 jump.
const (
	traceMinHits = 64
	traceBiasNum = 7
	traceBiasDen = 8
)

// traceDirection reports the profile-dominant outcome of a conditional
// jump slot — hits entries, taken of which resolved to the jump target —
// and whether the profile is decisive enough to guard a trace.
func traceDirection(hits, taken uint64) (expectTaken, ok bool) {
	if hits < traceMinHits {
		return false, false
	}
	if taken*traceBiasDen >= hits*traceBiasNum {
		return true, true
	}
	if (hits-taken)*traceBiasDen >= hits*traceBiasNum {
		return false, true
	}
	return false, false
}

// reoptimize builds the tier-1 (and, with traces enabled and a decisive
// branch profile, tier-2) form of a tier-0 decoded program. It is total:
// blocks where no pattern applies re-fuse exactly as tier 0 laid them
// out, so the result is always a valid dispatch form. withTraces gates
// cross-block trace formation so equivalence tests can pin the pure
// tier-1 form.
func reoptimize(dp *decodedProgram, withTraces bool) *decodedProgram {
	ndp := &decodedProgram{tier: 1, calls: dp.calls, ops: dp.ops}
	old := dp.insns

	// thread follows a chain of unconditional jumps from a run's target.
	// A run reaching a Ja always retires it, so folding the jump into the
	// run's target keeps the retired-instruction count exact by adding
	// one retire per skipped slot.
	thread := func(tgt int32) (int32, int32) {
		extra := int32(0)
		for int(tgt) >= 0 && int(tgt) < len(old) && old[tgt].op == OpJa && extra < int32(len(old)) {
			tgt = old[tgt].tgt
			extra++
		}
		return tgt, extra
	}

	// Reachable slots, discovered over explicit control edges (threaded
	// run targets, jump targets, conditional fallthroughs). Mid-run zero
	// slots, dead blocks, and jump-threaded Ja slots are never visited
	// and vanish from the compacted layout.
	reach := make([]bool, len(old))
	work := []int{0}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		if i < 0 || i >= len(old) || reach[i] {
			continue
		}
		reach[i] = true
		in := &old[i]
		switch {
		case in.op == opRunFused:
			// A run whose threaded successor is the program exit folds it
			// (opRunExit) and stops needing the slot at all.
			if tgt, _ := thread(in.tgt); int(tgt) < 0 || int(tgt) >= len(old) ||
				old[tgt].op != OpExit {
				work = append(work, int(tgt))
			}
		case in.op == OpJa:
			work = append(work, int(in.tgt))
		case isJump(in.op): // conditional: target and fallthrough
			work = append(work, int(in.tgt), i+1)
		}
	}

	// Group slots into fallthrough chains: a conditional jump must stay
	// immediately ahead of its fallthrough successor, so the unit of
	// reordering is the chain, not the slot.
	var chains [][]int
	chainEnd := make(map[int]int) // last slot of a chain -> chain index
	for i := 0; i < len(old); i++ {
		if !reach[i] {
			continue
		}
		if ci, ok := chainEnd[i-1]; ok && isJump(old[i-1].op) && old[i-1].op != OpJa {
			chains[ci] = append(chains[ci], i)
			delete(chainEnd, i-1)
			chainEnd[i] = ci
			continue
		}
		chains = append(chains, []int{i})
		chainEnd[i] = len(chains) - 1
	}

	// Order chains by profile: the entry chain stays first (dispatch
	// starts at slot 0), the rest sort hottest-run first so the hot
	// blocks of a program sit contiguous at the front of the slot array.
	hotness := func(c []int) uint64 {
		var h uint64
		for _, s := range c {
			if old[s].op == opRunFused && old[s].hits > h {
				h = old[s].hits
			}
		}
		return h
	}
	if len(chains) > 1 {
		rest := chains[1:]
		sort.SliceStable(rest, func(a, b int) bool {
			return hotness(rest[a]) > hotness(rest[b])
		})
	}

	// Assign compacted indexes and emit, remapping every control edge.
	newIdx := make([]int32, len(old))
	for i := range newIdx {
		newIdx[i] = -1
	}
	var order []int
	for _, c := range chains {
		order = append(order, c...)
	}
	for n, oldI := range order {
		newIdx[oldI] = int32(n)
	}
	ndp.insns = make([]dinsn, 0, len(order))
	for _, oldI := range order {
		in := old[oldI]
		switch {
		case in.op == opRunFused:
			run := optimizeRun(in.run, dp.calls, ndp)
			tgt, extra := thread(in.tgt)
			if int(tgt) >= 0 && int(tgt) < len(old) && old[tgt].op == OpExit {
				ndp.insns = append(ndp.insns, dinsn{
					op: opRunExit, retire: in.retire + extra + 1, run: run,
				})
				continue
			}
			// Tier 2: a run whose successor is a decisively-biased
			// conditional jump fuses across it into a guarded trace.
			if withTraces {
				if tr, cont, ok := formTrace(dp, thread, newIdx, tgt, ndp); ok {
					ndp.insns = append(ndp.insns, dinsn{
						op: opTrace, tgt: cont, retire: in.retire + extra, run: run, tr: tr,
					})
					ndp.tier = 2
					continue
				}
			}
			ndp.insns = append(ndp.insns, dinsn{
				op: opRunFused, tgt: remap(newIdx, tgt), retire: in.retire + extra, run: run,
			})
		case isJump(in.op):
			in.tgt = remap(newIdx, in.tgt)
			in.hits = 0
			ndp.insns = append(ndp.insns, in)
		default: // OpExit, or a corrupt slot that will error identically
			in.hits = 0
			ndp.insns = append(ndp.insns, in)
		}
	}
	return ndp
}

// formTrace attempts tier-2 cross-block fusion at jSlot, the threaded
// successor of a run being emitted. It succeeds when jSlot is a
// conditional jump with a decisive edge profile whose dominant successor
// (after jump threading) is a plain fused run: the guard condition, the
// optimized dominant block, and both outcomes' retire weights are
// packaged into a dtrace. The returned cont is the compacted slot the
// trace continues at after the dominant block (0 and unused when the
// dominant path folds the program exit). The jump and dominant-block
// slots stay in the layout for their other predecessors and for the
// cold path.
func formTrace(dp *decodedProgram, thread func(int32) (int32, int32),
	newIdx []int32, jSlot int32, ndp *decodedProgram) (*dtrace, int32, bool) {
	old, calls := dp.insns, dp.calls
	if int(jSlot) < 0 || int(jSlot) >= len(old) {
		return nil, 0, false
	}
	j := &old[jSlot]
	if !isJump(j.op) || j.op == OpJa {
		return nil, 0, false
	}
	var taken uint64
	if int(jSlot) < len(dp.takenCtr) {
		taken = dp.takenCtr[jSlot]
	}
	expect, decisive := traceDirection(j.hits, taken)
	if !decisive {
		return nil, 0, false
	}
	b0 := jSlot + 1 // dominant successor
	if expect {
		b0 = j.tgt
	}
	bSlot, extraToB := thread(b0)
	if int(bSlot) < 0 || int(bSlot) >= len(old) || old[bSlot].op != opRunFused {
		return nil, 0, false
	}
	bb := &old[bSlot]
	afterB, extraAfterB := thread(bb.tgt)
	exit := int(afterB) >= 0 && int(afterB) < len(old) && old[afterB].op == OpExit
	tr := &dtrace{
		op: j.op, dst: j.dst, src: j.src, imm: j.imm,
		expect: expect,
		exit:   exit,
		// Guard failure re-enters at the branch slot itself, which stays
		// in the layout for the cold path; it retires normally there, so
		// the fallback needs no retire adjustment and stays exact even
		// under a corrupted guard.
		failTgt:   remap(newIdx, jSlot),
		retireHit: 1 + extraToB + bb.retire + extraAfterB,
		runB:      optimizeRun(bb.run, calls, ndp),
	}
	var cont int32
	if exit {
		tr.retireHit++ // the folded OpExit retires too
	} else {
		cont = remap(newIdx, afterB)
	}
	return tr, cont, true
}

// remap translates a tier-0 slot index into the compacted layout. An
// edge into an unmapped slot (impossible for verified programs) keeps an
// out-of-range target so the dispatch loop reports it rather than
// executing the wrong block.
func remap(newIdx []int32, tgt int32) int32 {
	if int(tgt) >= 0 && int(tgt) < len(newIdx) && newIdx[tgt] >= 0 {
		return newIdx[tgt]
	}
	return int32(len(newIdx)) + 1
}

// optimizeRun rewrites one fused straight-line run through the tier-1
// passes: constant folding, helper-call fusion, and pair/ladder
// peepholes. The result covers exactly the same original instruction
// range, with each op's (pc, w) naming the tier-0 ops it replaces.
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
			OpLdxCtx, opLdxFP8, opLdxFP4, opLdxFP2, opLdxFP1, OpLdxStack:
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
	out := make([]dop, 0, len(run))
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
	out := make([]dop, 0, len(run))
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
