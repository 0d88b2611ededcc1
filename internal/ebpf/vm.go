package ebpf

import (
	"encoding/binary"
	"math"

	"github.com/tracesynth/rostracer/internal/umem"
)

// ExecContext carries the environment a program executes in: the identity
// of the interrupted thread, the current virtual time, the CPU, the
// pt_regs-style argument words of the probe site, and the address space
// reachable through probe_read.
type ExecContext struct {
	PID   uint32
	CPU   int
	NowNs int64
	Words []uint64    // probe-site arguments / tracepoint fields
	Mem   *umem.Space // address space of the traced process (may be nil)
}

// VM executes the dispatch form Runtime.Load installs. It is owned by a
// Runtime; decoding bound every map reference, so the VM needs no fd
// table.
type VM struct {
	// stack is the decoded-dispatch scratch frame, reused across runs
	// without re-zeroing: the verifier proves programs never read stack
	// bytes they did not first write, exactly the argument the kernel
	// uses to hand programs an uninitialized frame.
	stack [StackSize]byte
	// regs is the decoded-dispatch register file, reused without
	// re-zeroing by the same argument: the verifier rejects reads of
	// uninitialized registers, so stale values are unobservable. Only R10
	// is re-seeded per run.
	regs [decodedRegs]uint64
}

// NewVM returns a VM with its own scratch frame and register file.
func NewVM() *VM { return new(VM) }

// ExecResult reports a completed program run.
type ExecResult struct {
	R0    uint64
	Insns int // instructions retired, used for overhead accounting
}

// Run executes p's installed dispatch form against ctx. p must have been
// loaded: Load verifies and decodes it, and Attach refuses a program
// without an installed form, as the kernel refuses to attach bytecode it
// never loaded. A run cannot fail; helper faults surface in R0.
func (vm *VM) Run(p *Program, ctx *ExecContext) ExecResult {
	return vm.runDecoded(p.dp, ctx)
}

// runDecoded is the hot dispatch loop over the pre-resolved form. Every
// reachable slot is a fused straight-line run, a jump, or exit, so the
// outer loop only steers control flow; execRun retires the straight-line
// work. Load proved what the loops do not check: every jump lands
// forward and inside the program, every reachable slot and run op is
// one they handle, and every call names a known helper; checkInstalled
// asserts all three in the tests.
func (vm *VM) runDecoded(dp *decodedProgram, ctx *ExecContext) ExecResult {
	regs := &vm.regs
	stack := vm.stack[:]
	regs[R10] = StackSize

	code := dp.insns
	insns := 0
	pc := 0
	for {
		in := &code[pc]
		insns++
		switch in.op {
		case opRunFused:
			insns += int(in.retire) - 1 // each constituent retires; the run itself is not an insn
			vm.execRun(in.run, dp, regs, stack, ctx)
			pc = int(in.tgt)
			continue

		case opRunExit:
			insns += int(in.retire) - 1 // includes the folded exit
			vm.execRun(in.run, dp, regs, stack, ctx)
			return ExecResult{R0: regs[R0], Insns: insns}

		case OpJa:
			pc = int(in.tgt)
			continue
		case OpJeqImm:
			if regs[in.dst&regIdxMask] == in.imm {
				goto taken
			}
		case OpJneImm:
			if regs[in.dst&regIdxMask] != in.imm {
				goto taken
			}
		case OpJgtImm:
			if regs[in.dst&regIdxMask] > in.imm {
				goto taken
			}
		case OpJgeImm:
			if regs[in.dst&regIdxMask] >= in.imm {
				goto taken
			}
		case OpJltImm:
			if regs[in.dst&regIdxMask] < in.imm {
				goto taken
			}
		case OpJleImm:
			if regs[in.dst&regIdxMask] <= in.imm {
				goto taken
			}
		case OpJeqReg:
			if regs[in.dst&regIdxMask] == regs[in.src&regIdxMask] {
				goto taken
			}
		case OpJneReg:
			if regs[in.dst&regIdxMask] != regs[in.src&regIdxMask] {
				goto taken
			}
		case OpJgtReg:
			if regs[in.dst&regIdxMask] > regs[in.src&regIdxMask] {
				goto taken
			}
		case OpJgeReg:
			if regs[in.dst&regIdxMask] >= regs[in.src&regIdxMask] {
				goto taken
			}
		case OpJltReg:
			if regs[in.dst&regIdxMask] < regs[in.src&regIdxMask] {
				goto taken
			}
		case OpJleReg:
			if regs[in.dst&regIdxMask] <= regs[in.src&regIdxMask] {
				goto taken
			}

		case OpExit:
			return ExecResult{R0: regs[R0], Insns: insns}
		}
		// Only a not-taken conditional jump falls out of the switch.
		pc++
		continue

	taken:
		pc = int(in.tgt)
	}
}

// execRun executes a fused straight-line run back to back: no pc
// management, jump tests, or instruction-budget checks between
// constituents. Only non-control instructions are fused, so execution
// always falls through the whole run (helpers report faults through R0,
// not errors).
//
// Nothing here re-checks what load proved: every frame index, pattern
// byte range, template index and map binding in the run is a load-time
// constant the verifier and optimize established, so the ops index the
// stack and the call table directly. Go's own bounds checks remain the
// backstop.
func (vm *VM) execRun(run []dop, dp *decodedProgram, regs *[decodedRegs]uint64, stack []byte, ctx *ExecContext) {
	for i := range run {
		in := &run[i]
		switch in.op {
		case OpMovImm:
			regs[in.dst&regIdxMask] = in.imm
		case OpMovReg:
			regs[in.dst&regIdxMask] = regs[in.src&regIdxMask]
		case OpAddImm:
			regs[in.dst&regIdxMask] += in.imm
		case OpAddReg:
			regs[in.dst&regIdxMask] += regs[in.src&regIdxMask]
		case OpSubImm:
			regs[in.dst&regIdxMask] -= in.imm
		case OpSubReg:
			regs[in.dst&regIdxMask] -= regs[in.src&regIdxMask]
		case OpMulImm:
			regs[in.dst&regIdxMask] *= in.imm
		case OpMulReg:
			regs[in.dst&regIdxMask] *= regs[in.src&regIdxMask]
		case OpDivImm:
			regs[in.dst&regIdxMask] = safeDiv(regs[in.dst&regIdxMask], in.imm)
		case OpDivReg:
			regs[in.dst&regIdxMask] = safeDiv(regs[in.dst&regIdxMask], regs[in.src&regIdxMask])
		case OpModImm:
			regs[in.dst&regIdxMask] = safeMod(regs[in.dst&regIdxMask], in.imm)
		case OpModReg:
			regs[in.dst&regIdxMask] = safeMod(regs[in.dst&regIdxMask], regs[in.src&regIdxMask])
		case OpAndImm:
			regs[in.dst&regIdxMask] &= in.imm
		case OpAndReg:
			regs[in.dst&regIdxMask] &= regs[in.src&regIdxMask]
		case OpOrImm:
			regs[in.dst&regIdxMask] |= in.imm
		case OpOrReg:
			regs[in.dst&regIdxMask] |= regs[in.src&regIdxMask]
		case OpXorImm:
			regs[in.dst&regIdxMask] ^= in.imm
		case OpXorReg:
			regs[in.dst&regIdxMask] ^= regs[in.src&regIdxMask]
		case OpLshImm:
			regs[in.dst&regIdxMask] <<= in.imm
		case OpRshImm:
			regs[in.dst&regIdxMask] >>= in.imm
		case OpNeg:
			regs[in.dst&regIdxMask] = -regs[in.dst&regIdxMask]

		case OpLdxCtx:
			w := int(in.tgt)
			if w < 0 || w >= len(ctx.Words) {
				regs[in.dst&regIdxMask] = 0
			} else {
				regs[in.dst&regIdxMask] = ctx.Words[w]
			}

		// Width-specialized stack ops: the frame index in tgt was proven
		// in bounds by the verifier.
		case opLdxFP8:
			regs[in.dst&regIdxMask] = binary.LittleEndian.Uint64(stack[in.tgt:])
		case opLdxFP4:
			regs[in.dst&regIdxMask] = uint64(binary.LittleEndian.Uint32(stack[in.tgt:]))
		case opLdxFP2:
			regs[in.dst&regIdxMask] = uint64(binary.LittleEndian.Uint16(stack[in.tgt:]))
		case opLdxFP1:
			regs[in.dst&regIdxMask] = uint64(stack[in.tgt])
		case opStxFP8:
			binary.LittleEndian.PutUint64(stack[in.tgt:], regs[in.src&regIdxMask])
		case opStxFP4:
			binary.LittleEndian.PutUint32(stack[in.tgt:], uint32(regs[in.src&regIdxMask]))
		case opStxFP2:
			binary.LittleEndian.PutUint16(stack[in.tgt:], uint16(regs[in.src&regIdxMask]))
		case opStxFP1:
			stack[in.tgt] = byte(regs[in.src&regIdxMask])
		case opStImmFP8:
			binary.LittleEndian.PutUint64(stack[in.tgt:], in.imm)
		case opStImmFP4:
			binary.LittleEndian.PutUint32(stack[in.tgt:], uint32(in.imm))
		case opStImmFP2:
			binary.LittleEndian.PutUint16(stack[in.tgt:], uint16(in.imm))
		case opStImmFP1:
			stack[in.tgt] = byte(in.imm)

		case OpCall:
			callDecoded(&dp.calls[in.tgt], regs, stack, ctx)

		// --- pattern superinstructions ---
		//
		// Ops that produce a helper result in R0 support result
		// forwarding: an absorbed "rd = R0" / "rd += R0" successor lands
		// in dst (dst = R0 encodes no forwarding — the copy is then the
		// identity store the op performs anyway, so the fast path stays
		// branch-light).

		case opCallTime:
			v := uint64(ctx.NowNs)
			regs[R0] = v
			if in.size&resFwdAdd == 0 {
				regs[in.dst&regIdxMask] = v
			} else {
				regs[in.dst&regIdxMask] += v
			}
		case opCallPid:
			v := uint64(ctx.PID)
			regs[R0] = v
			if in.size&resFwdAdd == 0 {
				regs[in.dst&regIdxMask] = v
			} else {
				regs[in.dst&regIdxMask] += v
			}
		case opCallCPU:
			v := uint64(ctx.CPU)
			regs[R0] = v
			if in.size&resFwdAdd == 0 {
				regs[in.dst&regIdxMask] = v
			} else {
				regs[in.dst&regIdxMask] += v
			}

		case opLdxCtx2:
			words := ctx.Words
			var v1, v2 uint64
			if w := int(in.tgt); w >= 0 && w < len(words) {
				v1 = words[w]
			}
			if w := int(in.imm); w >= 0 && w < len(words) {
				v2 = words[w]
			}
			regs[in.dst&regIdxMask] = v1
			regs[in.src&regIdxMask] = v2

		case opTimeToStack:
			regs[R0] = uint64(ctx.NowNs)
			binary.LittleEndian.PutUint64(stack[in.tgt:], regs[R0])
		case opPidToStack:
			regs[R0] = uint64(ctx.PID)
			binary.LittleEndian.PutUint64(stack[in.tgt:], regs[R0])
		case opCPUToStack:
			regs[R0] = uint64(ctx.CPU)
			binary.LittleEndian.PutUint64(stack[in.tgt:], regs[R0])

		case opCtxToStack:
			var v uint64
			if w := int(in.imm); w >= 0 && w < len(ctx.Words) {
				v = ctx.Words[w]
			}
			regs[in.dst&regIdxMask] = v
			binary.LittleEndian.PutUint64(stack[in.tgt:], v)

		case opStoreRunImm:
			copy(stack[in.tgt:], dp.templates[in.imm])

		case opEmitRecord:
			base, size := in.imm>>32, uint64(uint32(in.imm))
			dp.calls[in.tgt].pb.Emit(ctx.CPU, ctx.NowNs, stack[base:base+size])
			regs[R0] = 0

		case opMapLookupFast:
			c := &dp.calls[in.tgt]
			key := regs[in.src&regIdxMask]
			if in.size&mapKeyImm != 0 {
				key = in.imm
			}
			var v uint64
			if c.hm != nil {
				v, _ = c.hm.Lookup(key)
			} else {
				v, _ = c.m.Lookup(key)
			}
			regs[R0] = v
			if in.size&resFwdAdd == 0 {
				regs[in.dst&regIdxMask] = v
			} else {
				regs[in.dst&regIdxMask] += v
			}

		case opMapExistFast:
			c := &dp.calls[in.tgt]
			key := regs[in.src&regIdxMask]
			if in.size&mapKeyImm != 0 {
				key = in.imm
			}
			var ok bool
			if c.hm != nil {
				_, ok = c.hm.Lookup(key)
			} else {
				_, ok = c.m.Lookup(key)
			}
			var v uint64
			if ok {
				v = 1
			}
			regs[R0] = v
			if in.size&resFwdAdd == 0 {
				regs[in.dst&regIdxMask] = v
			} else {
				regs[in.dst&regIdxMask] += v
			}

		case opMapDeleteFast:
			c := &dp.calls[in.tgt]
			key := regs[in.src&regIdxMask]
			if in.size&mapKeyImm != 0 {
				key = in.imm
			}
			if c.hm != nil {
				c.hm.Delete(key)
			} else {
				c.m.Delete(key)
			}
			regs[R0] = 0
			if in.size&resFwdAdd == 0 {
				regs[in.dst&regIdxMask] = 0
			}

		case opMapUpdateFast:
			c := &dp.calls[in.tgt]
			key, val := regs[in.src&regIdxMask], regs[in.dst&regIdxMask]
			if in.size&mapKeyImm != 0 {
				key = in.imm
			} else if in.size&mapValImm != 0 {
				val = in.imm
			}
			var err error
			if c.hm != nil {
				err = c.hm.Update(key, val)
			} else {
				err = c.m.Update(key, val)
			}
			if err != nil {
				regs[R0] = ^uint64(0)
			} else {
				regs[R0] = 0
			}

		case opProbeReadFast:
			dst := stack[in.tgt : uint64(in.tgt)+in.imm]
			var v uint64
			if ctx.Mem == nil {
				zero(dst)
				v = 1
			} else if rerr := ctx.Mem.ReadInto(umem.Addr(regs[in.src&regIdxMask]), dst); rerr != nil {
				zero(dst)
				v = 1
			}
			regs[R0] = v
			if in.size&resFwdAdd == 0 {
				regs[in.dst&regIdxMask] = v
			} else {
				regs[in.dst&regIdxMask] += v
			}

		case opProbeReadStrFast:
			dst := stack[in.tgt : uint64(in.tgt)+in.imm]
			zero(dst)
			var v uint64
			if ctx.Mem == nil {
				v = math.MaxUint64
			} else if n, rerr := ctx.Mem.ReadCStringInto(umem.Addr(regs[in.src&regIdxMask]), dst[:len(dst)-1]); rerr != nil {
				v = math.MaxUint64
			} else {
				v = uint64(n)
			}
			regs[R0] = v
			if in.size&resFwdAdd == 0 {
				regs[in.dst&regIdxMask] = v
			} else {
				regs[in.dst&regIdxMask] += v
			}
		}
	}
}

// callDecoded dispatches a helper call whose map argument (if any) was
// bound at decode time. The verifier proved each stack range constant and
// in bounds (checkHelper), so the ranges index the frame directly.
func callDecoded(in *dcall, regs *[decodedRegs]uint64, stack []byte, ctx *ExecContext) {
	switch in.helper {
	case HelperMapLookup:
		v, _ := in.m.Lookup(regs[R2])
		regs[R0] = v
	case HelperMapLookupExist:
		if _, ok := in.m.Lookup(regs[R2]); ok {
			regs[R0] = 1
		} else {
			regs[R0] = 0
		}
	case HelperMapUpdate:
		if err := in.m.Update(regs[R2], regs[R3]); err != nil {
			regs[R0] = ^uint64(0)
		} else {
			regs[R0] = 0
		}
	case HelperMapDelete:
		in.m.Delete(regs[R2])
		regs[R0] = 0
	case HelperProbeRead:
		dst := stack[regs[R1] : regs[R1]+regs[R2]]
		if ctx.Mem == nil {
			zero(dst)
			regs[R0] = 1
			return
		}
		if rerr := ctx.Mem.ReadInto(umem.Addr(regs[R3]), dst); rerr != nil {
			zero(dst)
			regs[R0] = 1
			return
		}
		regs[R0] = 0
	case HelperProbeReadStr:
		dst := stack[regs[R1] : regs[R1]+regs[R2]]
		zero(dst)
		if ctx.Mem == nil {
			regs[R0] = math.MaxUint64
			return
		}
		n, rerr := ctx.Mem.ReadCStringInto(umem.Addr(regs[R3]), dst[:len(dst)-1])
		if rerr != nil {
			regs[R0] = math.MaxUint64
			return
		}
		regs[R0] = uint64(n)
	case HelperPerfOutput:
		in.pb.Emit(ctx.CPU, ctx.NowNs, stack[regs[R2]:regs[R2]+regs[R3]])
		regs[R0] = 0
	case HelperKtimeGetNs:
		regs[R0] = uint64(ctx.NowNs)
	case HelperGetCurrentPid:
		regs[R0] = uint64(ctx.PID)
	case HelperGetSmpProcID:
		regs[R0] = uint64(ctx.CPU)
	}
}

func safeDiv(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func safeMod(a, b uint64) uint64 {
	if b == 0 {
		return 0
	}
	return a % b
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
