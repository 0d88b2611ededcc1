// Package ebpf implements the extended-Berkeley-Packet-Filter substrate the
// paper's tracers run on: a 64-bit register machine with a verifier, an
// interpreter, hash/array/perf-event maps, and an attachment registry for
// uprobes, uretprobes and kernel tracepoints.
//
// The instruction set is the subset of eBPF the tracing programs need:
// 64-bit ALU, forward conditional jumps (the classic eBPF termination
// guarantee), stack loads/stores, context loads, helper calls and EXIT.
// Programs are written with the Assembler, must pass Verify before they can
// be attached, and execute in the VM against a pt_regs-like context of
// argument words. Memory traversal happens exclusively through the
// probe_read helpers against a simulated user address space (package umem),
// which reproduces the paper's technique of walking rclcpp/rmw argument
// structures without instrumenting the libraries.
package ebpf

import "fmt"

// Reg is a VM register. R0 holds return values, R1–R5 are helper arguments
// and are clobbered by calls, R6–R9 are callee-saved working registers, R10
// is the read-only frame pointer (top of the 512-byte stack).
type Reg uint8

// VM registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	NumRegs = 11
)

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Op is an instruction opcode.
type Op uint8

// Opcodes.
const (
	OpInvalid Op = iota

	// ALU64: dst = dst <op> (imm | src).
	OpMovImm
	OpMovReg
	OpAddImm
	OpAddReg
	OpSubImm
	OpSubReg
	OpMulImm
	OpMulReg
	OpDivImm // division by zero yields 0, as in the kernel
	OpDivReg
	OpModImm
	OpModReg
	OpAndImm
	OpAndReg
	OpOrImm
	OpOrReg
	OpXorImm
	OpXorReg
	OpLshImm
	OpRshImm
	OpNeg

	// Memory: the stack is the only directly addressable memory.
	// Addressing is reg(PtrStack) + Off; Size is 1, 2, 4 or 8 bytes.
	OpLdxStack   // dst = *(size*)(src + off)
	OpStxStack   // *(size*)(dst + off) = src
	OpStImmStack // *(size*)(dst + off) = imm

	// Context: dst = ctx[Off/8]; src must hold the context pointer (R1 at
	// entry). Off must be 8-byte aligned and within the context.
	OpLdxCtx

	// Jumps: Off is relative to the next instruction and must be positive
	// (forward-only), which guarantees termination.
	OpJa
	OpJeqImm
	OpJneImm
	OpJgtImm
	OpJgeImm
	OpJltImm
	OpJleImm
	OpJeqReg
	OpJneReg
	OpJgtReg
	OpJgeReg
	OpJltReg
	OpJleReg

	OpCall // Imm = helper ID
	OpExit
)

var opNames = map[Op]string{
	OpMovImm: "mov", OpMovReg: "mov", OpAddImm: "add", OpAddReg: "add",
	OpSubImm: "sub", OpSubReg: "sub", OpMulImm: "mul", OpMulReg: "mul",
	OpDivImm: "div", OpDivReg: "div", OpModImm: "mod", OpModReg: "mod",
	OpAndImm: "and", OpAndReg: "and", OpOrImm: "or", OpOrReg: "or",
	OpXorImm: "xor", OpXorReg: "xor", OpLshImm: "lsh", OpRshImm: "rsh",
	OpNeg: "neg", OpLdxStack: "ldx", OpStxStack: "stx", OpStImmStack: "st",
	OpLdxCtx: "ldxctx", OpJa: "ja", OpJeqImm: "jeq", OpJneImm: "jne",
	OpJgtImm: "jgt", OpJgeImm: "jge", OpJltImm: "jlt", OpJleImm: "jle",
	OpJeqReg: "jeq", OpJneReg: "jne", OpJgtReg: "jgt", OpJgeReg: "jge",
	OpJltReg: "jlt", OpJleReg: "jle", OpCall: "call", OpExit: "exit",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instruction is one decoded VM instruction.
type Instruction struct {
	Op   Op
	Dst  Reg
	Src  Reg
	Off  int32 // jump displacement or memory offset
	Imm  int64
	Size uint8 // memory access width: 1, 2, 4 or 8
}

func (in Instruction) String() string {
	switch in.Op {
	case OpCall:
		return fmt.Sprintf("call %s", HelperID(in.Imm))
	case OpExit:
		return "exit"
	case OpJa:
		return fmt.Sprintf("ja +%d", in.Off)
	case OpLdxStack:
		return fmt.Sprintf("%v = *(u%d*)(%v%+d)", in.Dst, in.Size*8, in.Src, in.Off)
	case OpStxStack:
		return fmt.Sprintf("*(u%d*)(%v%+d) = %v", in.Size*8, in.Dst, in.Off, in.Src)
	case OpStImmStack:
		return fmt.Sprintf("*(u%d*)(%v%+d) = %d", in.Size*8, in.Dst, in.Off, in.Imm)
	case OpLdxCtx:
		return fmt.Sprintf("%v = ctx[%d]", in.Dst, in.Off/8)
	}
	return fmt.Sprintf("%s %v, %v, off=%d imm=%d", in.Op, in.Dst, in.Src, in.Off, in.Imm)
}

// Program is a verified-or-not sequence of instructions plus metadata.
type Program struct {
	Name     string
	Insns    []Instruction
	verified bool

	// callMapFD records, per instruction index, the constant map fd the
	// verifier proved for a map-taking helper call site (-1 elsewhere).
	// The decoder uses it to bind call sites to Map references directly.
	callMapFD []int64
	// memLo records, per instruction index, the verifier-proven absolute
	// stack index of a stack load/store (-1 elsewhere). The decoder uses
	// it to lower stack ops into width-specialized forms with no runtime
	// address arithmetic, the way the kernel verifier rewrites memory
	// instructions.
	memLo []int32
	// dp points at the pre-resolved dispatch form Runtime.Load installs:
	// operands widened, jump targets absolute, map fds bound, patterns
	// fused. Nil until a runtime loads the program, and Attach refuses
	// the program while it is. Load installs the form before Attach can
	// hand the program to a probe site, and each session assembles its
	// own programs, so fires read the form without synchronization.
	dp *decodedProgram
}

// HelperID identifies a kernel helper callable from programs.
type HelperID int64

// Helper IDs, loosely mirroring their kernel namesakes.
const (
	HelperMapLookup      HelperID = 1  // r1=map fd, r2=key -> r0=value (0 if absent)
	HelperMapUpdate      HelperID = 2  // r1=map fd, r2=key, r3=value
	HelperMapDelete      HelperID = 3  // r1=map fd, r2=key
	HelperProbeRead      HelperID = 4  // r1=dst(stack ptr), r2=size, r3=src addr -> r0=0 ok / 1 fault
	HelperProbeReadStr   HelperID = 5  // r1=dst(stack ptr), r2=size, r3=src addr -> r0=len, or MaxUint64 on fault
	HelperPerfOutput     HelperID = 6  // r1=perf map fd, r2=data(stack ptr), r3=size
	HelperKtimeGetNs     HelperID = 7  // -> r0=virtual ns
	HelperGetCurrentPid  HelperID = 8  // -> r0=pid of the traced thread
	HelperGetSmpProcID   HelperID = 9  // -> r0=cpu the probe fired on
	HelperMapLookupExist HelperID = 10 // r1=map fd, r2=key -> r0=1 if present else 0
)

var helperNames = map[HelperID]string{
	HelperMapLookup:      "map_lookup_elem",
	HelperMapUpdate:      "map_update_elem",
	HelperMapDelete:      "map_delete_elem",
	HelperProbeRead:      "probe_read",
	HelperProbeReadStr:   "probe_read_str",
	HelperPerfOutput:     "perf_event_output",
	HelperKtimeGetNs:     "ktime_get_ns",
	HelperGetCurrentPid:  "get_current_pid_tgid",
	HelperGetSmpProcID:   "get_smp_processor_id",
	HelperMapLookupExist: "map_lookup_exist",
}

func (h HelperID) String() string {
	if s, ok := helperNames[h]; ok {
		return s
	}
	return fmt.Sprintf("helper(%d)", int64(h))
}

// StackSize is the per-invocation stack size in bytes, as in real eBPF.
const StackSize = 512

// MaxInsns is the maximum verified program length.
const MaxInsns = 4096

// MaxCtxWords is the maximum number of 64-bit context words a probe site
// may expose.
const MaxCtxWords = 16
