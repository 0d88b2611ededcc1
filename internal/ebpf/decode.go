package ebpf

import "fmt"

// The decoder lowers a verified program into a pre-resolved dispatch form,
// the moral equivalent of the kernel's JIT step: work that the raw
// interpreter repeats on every instruction retire — widening immediates,
// turning relative jump displacements into absolute targets, dividing
// context offsets into word indexes, resolving stack accesses to the
// frame indexes the verifier proved, hashing map fds, and type-asserting
// perf buffers — happens once at load time instead. The VM dispatches over
// this form on every probe fire; the raw Instruction slice is kept for
// diagnostics and for the tests' reference interpreter.
//
// Like the kernel's JIT, decoding runs once, when Runtime.Load installs
// the program, and nothing is re-decoded at run time. This file lowers
// each instruction and fuses straight-line runs; optimize (optimize.go)
// then folds constants, fuses helper-argument setup into dedicated
// superinstructions, applies pair/ladder peepholes, and compacts the
// reachable blocks into a dense slot array in source order.

// Internal opcodes produced only by the decoder, numbered above the raw
// opcode space.
const (
	// opRunFused is the superinstruction opcode: a straight-line run of
	// pre-resolved instructions executed back to back without per-retire
	// outer-loop overhead.
	opRunFused Op = 0x80 + iota
	// opRunExit is an optimized run that ends the program: the dispatch
	// loop returns straight after the run instead of bouncing through a
	// separate exit slot. Its retire count includes the folded OpExit
	// (and any jump-threaded Ja slots).
	opRunExit
	// Width-specialized stack ops with the verifier-proven absolute frame
	// index in tgt: no runtime address arithmetic or width switch.
	opLdxFP8
	opLdxFP4
	opLdxFP2
	opLdxFP1
	opStxFP8
	opStxFP4
	opStxFP2
	opStxFP1
	opStImmFP8
	opStImmFP4
	opStImmFP2
	opStImmFP1

	// Pattern superinstructions (produced only by optimize; see
	// optimize.go for the matcher and vm.go for the semantics). Each
	// covers a contiguous range of original instructions [pc, pc+w), and
	// optimize emits one only after proving its operands at load time.
	opStoreRunImm      // copy templates[imm] into stack[tgt:]
	opLdxCtx2          // regs[dst] = ctx[tgt]; regs[src] = ctx[imm]
	opCtxToStack       // regs[dst] = ctx[imm]; stack[tgt:+8] = regs[dst]
	opTimeToStack      // regs[R0] = now; stack[tgt:+8] = regs[R0]
	opPidToStack       // regs[R0] = pid; stack[tgt:+8] = regs[R0]
	opCPUToStack       // regs[R0] = cpu; stack[tgt:+8] = regs[R0]
	opCallTime         // regs[R0] = now
	opCallPid          // regs[R0] = pid
	opCallCPU          // regs[R0] = cpu
	opEmitRecord       // calls[tgt].pb.Emit(stack[base:base+size]); imm = base<<32|size
	opMapLookupFast    // regs[R0] = calls[tgt].map.Lookup(key)
	opMapExistFast     // regs[R0] = key present in calls[tgt].map
	opMapDeleteFast    // calls[tgt].map.Delete(key)
	opMapUpdateFast    // calls[tgt].map.Update(key, value)
	opProbeReadFast    // probe_read(stack[tgt:tgt+imm], addr=regs[src])
	opProbeReadStrFast // probe_read_str(stack[tgt:tgt+imm], addr=regs[src])

)

// Argument-source and result-forwarding flags for the fused helper ops,
// stored in dop.size.
const (
	mapKeyImm uint8 = 1 << 0 // key is dop.imm, not regs[src]
	mapValImm uint8 = 1 << 1 // update value is dop.imm, not regs[dst]
	// resFwdAdd marks an absorbed "add result" successor: the op performs
	// regs[dst] += R0 after setting R0, instead of the plain copy a
	// forwarded dst receives (dst = R0 is the no-forward encoding — the
	// copy is then the identity store the op does anyway).
	resFwdAdd uint8 = 1 << 2
)

// decodedRegs is the decoded-dispatch register file size: a power of two,
// so register indexes masked with regIdxMask are provably in bounds and
// the compiler elides the bounds checks the hot loop would otherwise pay
// on every operand.
const (
	decodedRegs = 16
	regIdxMask  = decodedRegs - 1
)

// fpSpecial maps a generic stack op and access width to its specialized
// form.
func fpSpecial(op Op, size uint8) Op {
	var base Op
	switch op {
	case OpLdxStack:
		base = opLdxFP8
	case OpStxStack:
		base = opStxFP8
	case OpStImmStack:
		base = opStImmFP8
	default:
		return OpInvalid
	}
	switch size {
	case 8:
		return base
	case 4:
		return base + 1
	case 2:
		return base + 2
	default:
		return base + 3
	}
}

// stImmWidth reports the store width of a specialized immediate stack
// store, or 0 for any other op.
func stImmWidth(op Op) int32 {
	switch op {
	case opStImmFP8:
		return 8
	case opStImmFP4:
		return 4
	case opStImmFP2:
		return 2
	case opStImmFP1:
		return 1
	}
	return 0
}

// dop is one pre-resolved straight-line instruction, kept to 24 bytes so
// fused runs iterate cache-line-dense. tgt is overloaded per op: absolute
// frame index (specialized stack ops and pattern ops), ctx word index
// (OpLdxCtx), or call-binding index (OpCall and fused helper ops).
type dop struct {
	op   Op
	dst  uint8
	src  uint8
	size uint8
	tgt  int32
	imm  uint64
	pc   int32 // original pc of the first covered instruction
	w    uint8 // original instructions covered, [pc, pc+w): the retire weight
	_    [3]byte
}

// dcall is the decode-time binding of one helper call site.
type dcall struct {
	helper HelperID
	m      Map         // bound map for map-taking helpers
	pb     *PerfBuffer // bound perf buffer for perf_event_output
	hm     *HashMap    // devirtualized map, when m is a HashMap
}

// dinsn is one top-level dispatch slot: a fused run, a jump, or exit.
// In the lowered layout decode builds, slots are indexed by original pc
// and slots in the middle of a fused run are unreachable and left zeroed;
// the installed layout is compacted (every slot reachable, source order).
type dinsn struct {
	op     Op
	dst    uint8
	src    uint8
	tgt    int32 // absolute jump target, or next slot after a fused run
	retire int32 // original instructions retired by a fused run
	imm    uint64
	run    []dop // opRunFused/opRunExit: the fused instructions
}

// decodedProgram is the immutable dispatch form of a program, built once
// by Runtime.Load and published through the Program's atomic pointer.
type decodedProgram struct {
	insns []dinsn // compacted dispatch slots
	calls []dcall // per-call-site helper bindings
	// templates backs opStoreRunImm: pre-rendered little-endian bytes of a
	// fused immediate-store ladder.
	templates [][]byte
}

// isJump reports whether op transfers control.
func isJump(op Op) bool {
	switch op {
	case OpJa, OpJeqImm, OpJneImm, OpJgtImm, OpJgeImm, OpJltImm, OpJleImm,
		OpJeqReg, OpJneReg, OpJgtReg, OpJgeReg, OpJltReg, OpJleReg:
		return true
	}
	return false
}

// decode builds and installs the dispatch form of p against the given fd
// table. The program must be verified: decoding leans on verifier
// guarantees (constant map fds at call sites, constant stack-access
// offsets, in-range jumps).
//
// Decoding happens in two passes. The first lowers each instruction into a
// compact dop — immediates widened, shift counts masked, context offsets
// divided into word indexes, stack accesses specialized by width at their
// verifier-proven frame index, map fds bound to Map references and perf
// fds pre-asserted to *PerfBuffer in the call table. The second fuses
// straight-line runs between basic-block leaders (entry, jump targets,
// jump successors) into opRunFused superinstructions, so the dispatch loop
// pays its control-flow overhead once per block instead of once per
// instruction. Constituents keep their original pc for error attribution
// and each one still counts toward the retired-instruction total. The
// fused layout then goes through optimize, and its result is installed.
func decode(p *Program, lookup func(fd int64) Map) error {
	if !p.verified {
		return fmt.Errorf("ebpf: decoding unverified program %q", p.Name)
	}
	ops := make([]dop, len(p.Insns))
	var calls []dcall
	leader := make([]bool, len(p.Insns)+1)
	leader[0] = true
	for i, in := range p.Insns {
		d := dop{
			op:   in.Op,
			dst:  uint8(in.Dst) & regIdxMask,
			src:  uint8(in.Src) & regIdxMask,
			size: in.Size,
			pc:   int32(i),
			w:    1,
			imm:  uint64(in.Imm),
		}
		switch in.Op {
		case OpJa, OpJeqImm, OpJneImm, OpJgtImm, OpJgeImm, OpJltImm, OpJleImm,
			OpJeqReg, OpJneReg, OpJgtReg, OpJgeReg, OpJltReg, OpJleReg:
			d.tgt = int32(i) + 1 + in.Off
			if t := int(d.tgt); t >= 0 && t < len(leader) {
				leader[t] = true
			}
			if i+1 < len(leader) {
				leader[i+1] = true
			}
		case OpLdxCtx:
			d.tgt = in.Off / 8
		case OpLshImm, OpRshImm:
			d.imm &= 63
		case OpLdxStack, OpStxStack, OpStImmStack:
			// The verifier proved the frame index of every access it
			// reached. One it never reached keeps its raw op; it sits in
			// a block compaction drops, so no raw access is installed.
			if lo := p.memLo[i]; lo >= 0 {
				d.op = fpSpecial(in.Op, in.Size)
				d.tgt = lo
			}
		case OpCall:
			c := dcall{helper: HelperID(in.Imm)}
			if fd := p.callMapFD[i]; fd >= 0 {
				m := lookup(fd)
				if m == nil {
					return fmt.Errorf("ebpf: %q call at %d references unknown map fd %d", p.Name, i, fd)
				}
				c.m = m
				c.hm, _ = m.(*HashMap)
				if c.helper == HelperPerfOutput {
					pb, ok := m.(*PerfBuffer)
					if !ok {
						return fmt.Errorf("ebpf: %q call at %d: fd %d is not a perf buffer", p.Name, i, fd)
					}
					c.pb = pb
				}
			}
			d.tgt = int32(len(calls))
			calls = append(calls, c)
		}
		ops[i] = d
	}

	// Fuse straight-line runs. A run starts at a leader and extends over
	// consecutive non-control instructions up to (excluding) the next
	// jump, exit, or leader. Mid-run slots are unreachable (any jump into
	// them would have made them leaders) and stay zeroed — optimize
	// compacts them away. Single instructions are wrapped too, so every
	// reachable slot is a run, a jump, or exit, and the dispatch loop
	// steers control flow only.
	out := make([]dinsn, len(ops))
	for start := 0; start < len(ops); start++ {
		o := ops[start]
		if isJump(o.op) || o.op == OpExit {
			out[start] = dinsn{op: o.op, dst: o.dst, src: o.src, tgt: o.tgt, imm: o.imm}
			continue
		}
		if !leader[start] {
			continue // mid-run slot; unreachable
		}
		end := start
		for end < len(ops) && ops[end].op != OpExit && !isJump(ops[end].op) &&
			(end == start || !leader[end]) {
			end++
		}
		out[start] = dinsn{op: opRunFused, tgt: int32(end), retire: int32(end - start),
			run: ops[start:end:end]}
	}
	p.dp = optimize(out, calls)
	return nil
}
