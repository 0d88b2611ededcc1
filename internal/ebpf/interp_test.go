package ebpf

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/tracesynth/rostracer/internal/umem"
)

// The raw reference interpreter: the test oracle every equivalence check
// compares the installed dispatch form against. It runs the raw
// Instruction slice, resolves map fds through its own fd table on every
// helper call, and keeps every run-time check a verified program makes
// unreachable, reporting a violation as an error.

// rawVM interprets programs over the fd table maps.
type rawVM struct {
	maps map[int64]Map
}

// RunInterpreted executes p through the raw reference interpreter,
// re-resolving operands on every retire. It is the semantic baseline the
// decoded dispatch is tested against.
func (vm *rawVM) RunInterpreted(p *Program, ctx *ExecContext) (ExecResult, error) {
	if !p.verified {
		panic(fmt.Sprintf("ebpf: running unverified program %q", p.Name))
	}
	var regs [NumRegs]uint64
	var stack [StackSize]byte
	// r10 is modeled as the index just past the stack top; stack addresses
	// are (r10 value + negative offset). We keep r10 = StackSize so that
	// effective indexes are val+off directly.
	regs[R10] = StackSize
	regs[R1] = 0 // context pointer is symbolic; loads go through OpLdxCtx

	insns := 0
	pc := 0
	for {
		if pc < 0 || pc >= len(p.Insns) {
			return ExecResult{}, fmt.Errorf("ebpf: %q pc %d out of range", p.Name, pc)
		}
		in := p.Insns[pc]
		insns++
		if insns > MaxInsns*2 {
			return ExecResult{}, fmt.Errorf("ebpf: %q exceeded instruction budget", p.Name)
		}
		switch in.Op {
		case OpMovImm:
			regs[in.Dst] = uint64(in.Imm)
		case OpMovReg:
			regs[in.Dst] = regs[in.Src]
		case OpAddImm:
			regs[in.Dst] += uint64(in.Imm)
		case OpAddReg:
			regs[in.Dst] += regs[in.Src]
		case OpSubImm:
			regs[in.Dst] -= uint64(in.Imm)
		case OpSubReg:
			regs[in.Dst] -= regs[in.Src]
		case OpMulImm:
			regs[in.Dst] *= uint64(in.Imm)
		case OpMulReg:
			regs[in.Dst] *= regs[in.Src]
		case OpDivImm:
			regs[in.Dst] = safeDiv(regs[in.Dst], uint64(in.Imm))
		case OpDivReg:
			regs[in.Dst] = safeDiv(regs[in.Dst], regs[in.Src])
		case OpModImm:
			regs[in.Dst] = safeMod(regs[in.Dst], uint64(in.Imm))
		case OpModReg:
			regs[in.Dst] = safeMod(regs[in.Dst], regs[in.Src])
		case OpAndImm:
			regs[in.Dst] &= uint64(in.Imm)
		case OpAndReg:
			regs[in.Dst] &= regs[in.Src]
		case OpOrImm:
			regs[in.Dst] |= uint64(in.Imm)
		case OpOrReg:
			regs[in.Dst] |= regs[in.Src]
		case OpXorImm:
			regs[in.Dst] ^= uint64(in.Imm)
		case OpXorReg:
			regs[in.Dst] ^= regs[in.Src]
		case OpLshImm:
			regs[in.Dst] <<= uint64(in.Imm) & 63
		case OpRshImm:
			regs[in.Dst] >>= uint64(in.Imm) & 63
		case OpNeg:
			regs[in.Dst] = -regs[in.Dst]

		case OpLdxCtx:
			w := int(in.Off / 8)
			if w < 0 || w >= len(ctx.Words) {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] = ctx.Words[w]
			}

		case OpLdxStack:
			idx := int64(regs[in.Src]) + int64(in.Off)
			if idx < 0 || idx+int64(in.Size) > StackSize {
				return ExecResult{}, fmt.Errorf("ebpf: %q stack read oob at pc %d", p.Name, pc)
			}
			regs[in.Dst] = loadSized(stack[idx:], in.Size)

		case OpStxStack:
			idx := int64(regs[in.Dst]) + int64(in.Off)
			if idx < 0 || idx+int64(in.Size) > StackSize {
				return ExecResult{}, fmt.Errorf("ebpf: %q stack write oob at pc %d", p.Name, pc)
			}
			storeSized(stack[idx:], in.Size, regs[in.Src])

		case OpStImmStack:
			idx := int64(regs[in.Dst]) + int64(in.Off)
			if idx < 0 || idx+int64(in.Size) > StackSize {
				return ExecResult{}, fmt.Errorf("ebpf: %q stack write oob at pc %d", p.Name, pc)
			}
			storeSized(stack[idx:], in.Size, uint64(in.Imm))

		case OpJa:
			pc += int(in.Off)
		case OpJeqImm:
			if regs[in.Dst] == uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJneImm:
			if regs[in.Dst] != uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJgtImm:
			if regs[in.Dst] > uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJgeImm:
			if regs[in.Dst] >= uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJltImm:
			if regs[in.Dst] < uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJleImm:
			if regs[in.Dst] <= uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJeqReg:
			if regs[in.Dst] == regs[in.Src] {
				pc += int(in.Off)
			}
		case OpJneReg:
			if regs[in.Dst] != regs[in.Src] {
				pc += int(in.Off)
			}
		case OpJgtReg:
			if regs[in.Dst] > regs[in.Src] {
				pc += int(in.Off)
			}
		case OpJgeReg:
			if regs[in.Dst] >= regs[in.Src] {
				pc += int(in.Off)
			}
		case OpJltReg:
			if regs[in.Dst] < regs[in.Src] {
				pc += int(in.Off)
			}
		case OpJleReg:
			if regs[in.Dst] <= regs[in.Src] {
				pc += int(in.Off)
			}

		case OpCall:
			if err := vm.call(HelperID(in.Imm), &regs, stack[:], ctx); err != nil {
				return ExecResult{}, fmt.Errorf("ebpf: %q pc %d: %w", p.Name, pc, err)
			}

		case OpExit:
			return ExecResult{R0: regs[R0], Insns: insns}, nil

		default:
			return ExecResult{}, fmt.Errorf("ebpf: %q invalid opcode at pc %d", p.Name, pc)
		}
		// Taken jumps above adjusted pc by the displacement relative to
		// the *next* instruction, so always advance by one here.
		pc++
	}
}

func (vm *rawVM) call(h HelperID, regs *[NumRegs]uint64, stack []byte, ctx *ExecContext) error {
	stackSlice := func(ptr, size uint64) ([]byte, error) {
		idx := int64(ptr)
		if idx < 0 || idx+int64(size) > StackSize {
			return nil, fmt.Errorf("%v: stack range [%d,+%d) invalid", h, idx, size)
		}
		return stack[idx : idx+int64(size)], nil
	}
	getMap := func(fd uint64) (Map, error) {
		m, ok := vm.maps[int64(fd)]
		if !ok {
			return nil, fmt.Errorf("%v: bad map fd %d", h, fd)
		}
		return m, nil
	}

	switch h {
	case HelperMapLookup:
		m, err := getMap(regs[R1])
		if err != nil {
			return err
		}
		v, _ := m.Lookup(regs[R2])
		regs[R0] = v
	case HelperMapLookupExist:
		m, err := getMap(regs[R1])
		if err != nil {
			return err
		}
		if _, ok := m.Lookup(regs[R2]); ok {
			regs[R0] = 1
		} else {
			regs[R0] = 0
		}
	case HelperMapUpdate:
		m, err := getMap(regs[R1])
		if err != nil {
			return err
		}
		if err := m.Update(regs[R2], regs[R3]); err != nil {
			regs[R0] = ^uint64(0)
		} else {
			regs[R0] = 0
		}
	case HelperMapDelete:
		m, err := getMap(regs[R1])
		if err != nil {
			return err
		}
		m.Delete(regs[R2])
		regs[R0] = 0
	case HelperProbeRead:
		dst, err := stackSlice(regs[R1], regs[R2])
		if err != nil {
			return err
		}
		if ctx.Mem == nil {
			zero(dst)
			regs[R0] = 1
			return nil
		}
		if rerr := ctx.Mem.ReadInto(umem.Addr(regs[R3]), dst); rerr != nil {
			zero(dst)
			regs[R0] = 1
			return nil
		}
		regs[R0] = 0
	case HelperProbeReadStr:
		dst, err := stackSlice(regs[R1], regs[R2])
		if err != nil {
			return err
		}
		zero(dst)
		if ctx.Mem == nil {
			regs[R0] = math.MaxUint64
			return nil
		}
		n, rerr := ctx.Mem.ReadCStringInto(umem.Addr(regs[R3]), dst[:len(dst)-1])
		if rerr != nil {
			regs[R0] = math.MaxUint64
			return nil
		}
		regs[R0] = uint64(n)
	case HelperPerfOutput:
		m, err := getMap(regs[R1])
		if err != nil {
			return err
		}
		pb, ok := m.(*PerfBuffer)
		if !ok {
			return fmt.Errorf("%v: fd %d is not a perf buffer", h, regs[R1])
		}
		src, err := stackSlice(regs[R2], regs[R3])
		if err != nil {
			return err
		}
		pb.Emit(ctx.CPU, ctx.NowNs, src)
		regs[R0] = 0
	case HelperKtimeGetNs:
		regs[R0] = uint64(ctx.NowNs)
	case HelperGetCurrentPid:
		regs[R0] = uint64(ctx.PID)
	case HelperGetSmpProcID:
		regs[R0] = uint64(ctx.CPU)
	default:
		return fmt.Errorf("unknown helper %d", int64(h))
	}
	return nil
}

func loadSized(b []byte, size uint8) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

func storeSized(b []byte, size uint8, v uint64) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}
