package ebpf

import "fmt"

// The verifier performs an abstract interpretation over the program's
// control-flow graph. Because jumps are forward-only the CFG is a DAG and a
// single in-order pass with state merging at join points visits every
// reachable instruction exactly once.
//
// Tracked facts, per register:
//   - kind: uninitialized, scalar, pointer-to-context, pointer-to-stack
//   - for scalars: whether the value is a compile-time constant (needed to
//     bound probe_read/perf_event_output sizes)
//   - for stack pointers: the constant offset from the frame top
//
// Tracked facts, per stack byte: initialized or not. perf_event_output and
// loads require their source bytes initialized.

type regKind uint8

const (
	kindUninit regKind = iota
	kindScalar
	kindPtrCtx
	kindPtrStack
	kindBottom // conflicting kinds merged; unusable
)

func (k regKind) String() string {
	switch k {
	case kindUninit:
		return "uninit"
	case kindScalar:
		return "scalar"
	case kindPtrCtx:
		return "ctx_ptr"
	case kindPtrStack:
		return "stack_ptr"
	default:
		return "bottom"
	}
}

type regState struct {
	kind      regKind
	constKnow bool  // scalar: value known at verification time
	constVal  int64 // scalar constant or stack-pointer offset (<= 0)
}

type absState struct {
	regs  [NumRegs]regState
	stack [StackSize]bool // initialized bytes; index 0 = fp-512 ... 511 = fp-1
}

// merge folds other into s, weakening facts that disagree. It reports
// whether s changed.
func (s *absState) merge(other *absState) bool {
	changed := false
	for i := range s.regs {
		a, b := s.regs[i], other.regs[i]
		m := a
		switch {
		case a == b:
			// identical
		case a.kind == b.kind && a.kind == kindScalar:
			m = regState{kind: kindScalar}
		case a.kind == b.kind && a.kind == kindPtrStack && a.constVal == b.constVal:
			m = a
		case a.kind == kindUninit || b.kind == kindUninit:
			m = regState{kind: kindUninit}
		default:
			m = regState{kind: kindBottom}
		}
		if m != a {
			s.regs[i] = m
			changed = true
		}
	}
	for i := range s.stack {
		init := s.stack[i] && other.stack[i]
		if init != s.stack[i] {
			s.stack[i] = init
			changed = true
		}
	}
	return changed
}

// VerifyError describes a verifier rejection.
type VerifyError struct {
	Prog string
	Insn int
	Msg  string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("ebpf: verifier rejected %q at insn %d: %s", e.Prog, e.Insn, e.Msg)
}

type verifier struct {
	prog     *Program
	ctxWords int
	maps     func(fd int64) Map // resolves map fds; nil allows any
	states   []*absState        // per-instruction incoming state
}

// VerifyOptions parameterize verification.
type VerifyOptions struct {
	// CtxWords is the number of 64-bit context words the attach point
	// provides. Loads beyond it are rejected.
	CtxWords int
	// LookupMap resolves a map fd to check map-typed helper arguments; nil
	// skips fd validation (useful in unit tests).
	LookupMap func(fd int64) Map
}

// Verify checks p and marks it verified on success.
func Verify(p *Program, opts VerifyOptions) error {
	if len(p.Insns) == 0 {
		return &VerifyError{p.Name, 0, "empty program"}
	}
	if len(p.Insns) > MaxInsns {
		return &VerifyError{p.Name, 0, fmt.Sprintf("program too long: %d insns", len(p.Insns))}
	}
	if opts.CtxWords <= 0 || opts.CtxWords > MaxCtxWords {
		opts.CtxWords = MaxCtxWords
	}
	v := &verifier{prog: p, ctxWords: opts.CtxWords, maps: opts.LookupMap,
		states: make([]*absState, len(p.Insns))}

	p.callMapFD = make([]int64, len(p.Insns))
	p.memLo = make([]int32, len(p.Insns))
	for i := range p.callMapFD {
		p.callMapFD[i] = -1
		p.memLo[i] = -1
	}

	entry := &absState{}
	entry.regs[R1] = regState{kind: kindPtrCtx}
	entry.regs[R10] = regState{kind: kindPtrStack, constVal: 0}
	v.states[0] = entry

	for i, in := range p.Insns {
		st := v.states[i]
		if st == nil {
			continue // unreachable; tolerated, as dead code after Ja
		}
		next, jumpTarget, terminated, err := v.step(i, in, st)
		if err != nil {
			return err
		}
		if terminated {
			continue
		}
		if next != nil {
			if i+1 >= len(p.Insns) {
				return &VerifyError{p.Name, i, "control falls off program end"}
			}
			v.propagate(i+1, next)
		}
		if jumpTarget >= 0 {
			if jumpTarget >= len(p.Insns) {
				return &VerifyError{p.Name, i, "jump beyond program end"}
			}
			v.propagate(jumpTarget, st.clone())
		}
	}
	// Only a successful verification drops the installed form, so a
	// failed reload leaves an attached program running the form an
	// earlier Load installed.
	p.dp = nil
	p.verified = true
	return nil
}

func (s *absState) clone() *absState {
	c := *s
	return &c
}

func (v *verifier) propagate(idx int, st *absState) {
	if v.states[idx] == nil {
		v.states[idx] = st
		return
	}
	v.states[idx].merge(st)
}

func (v *verifier) errf(i int, format string, args ...interface{}) error {
	return &VerifyError{v.prog.Name, i, fmt.Sprintf(format, args...)}
}

// step abstractly executes instruction i over st (mutating it as the
// fall-through state). It returns the fall-through state (nil if control
// never falls through), the jump target index (or -1), and whether the
// program terminated here.
func (v *verifier) step(i int, in Instruction, st *absState) (*absState, int, bool, error) {
	requireInit := func(r Reg, what string) error {
		k := st.regs[r].kind
		if k == kindUninit || k == kindBottom {
			return v.errf(i, "%s %v is %v", what, r, k)
		}
		return nil
	}
	requireScalar := func(r Reg, what string) error {
		if err := requireInit(r, what); err != nil {
			return err
		}
		if st.regs[r].kind != kindScalar {
			return v.errf(i, "%s %v must be scalar, is %v", what, r, st.regs[r].kind)
		}
		return nil
	}
	if in.Dst >= NumRegs || in.Src >= NumRegs {
		return nil, -1, false, v.errf(i, "invalid register")
	}
	writesDst := func() error {
		if in.Dst == R10 {
			return v.errf(i, "write to frame pointer r10")
		}
		return nil
	}

	switch in.Op {
	case OpMovImm:
		if err := writesDst(); err != nil {
			return nil, -1, false, err
		}
		st.regs[in.Dst] = regState{kind: kindScalar, constKnow: true, constVal: in.Imm}
		return st, -1, false, nil

	case OpMovReg:
		if err := writesDst(); err != nil {
			return nil, -1, false, err
		}
		if err := requireInit(in.Src, "source"); err != nil {
			return nil, -1, false, err
		}
		st.regs[in.Dst] = st.regs[in.Src]
		return st, -1, false, nil

	case OpAddImm, OpSubImm:
		if err := writesDst(); err != nil {
			return nil, -1, false, err
		}
		d := st.regs[in.Dst]
		switch d.kind {
		case kindScalar:
			if d.constKnow {
				if in.Op == OpAddImm {
					d.constVal += in.Imm
				} else {
					d.constVal -= in.Imm
				}
			}
		case kindPtrStack:
			off := d.constVal
			if in.Op == OpAddImm {
				off += in.Imm
			} else {
				off -= in.Imm
			}
			if off < -StackSize || off > 0 {
				return nil, -1, false, v.errf(i, "stack pointer offset %d out of [-%d,0]", off, StackSize)
			}
			d.constVal = off
		default:
			return nil, -1, false, v.errf(i, "arithmetic on %v register", d.kind)
		}
		st.regs[in.Dst] = d
		return st, -1, false, nil

	case OpAddReg, OpSubReg, OpMulReg, OpDivReg, OpModReg, OpAndReg, OpOrReg, OpXorReg:
		if err := writesDst(); err != nil {
			return nil, -1, false, err
		}
		if err := requireScalar(in.Dst, "operand"); err != nil {
			return nil, -1, false, err
		}
		if err := requireScalar(in.Src, "operand"); err != nil {
			return nil, -1, false, err
		}
		d, s := st.regs[in.Dst], st.regs[in.Src]
		out := regState{kind: kindScalar}
		if d.constKnow && s.constKnow {
			out.constKnow = true
			out.constVal = constALU(in.Op, d.constVal, s.constVal)
		}
		st.regs[in.Dst] = out
		return st, -1, false, nil

	case OpMulImm, OpDivImm, OpModImm, OpAndImm, OpOrImm, OpXorImm, OpLshImm, OpRshImm:
		if err := writesDst(); err != nil {
			return nil, -1, false, err
		}
		if err := requireScalar(in.Dst, "operand"); err != nil {
			return nil, -1, false, err
		}
		d := st.regs[in.Dst]
		if d.constKnow {
			d.constVal = constALU(in.Op, d.constVal, in.Imm)
		}
		st.regs[in.Dst] = d
		return st, -1, false, nil

	case OpNeg:
		if err := writesDst(); err != nil {
			return nil, -1, false, err
		}
		if err := requireScalar(in.Dst, "operand"); err != nil {
			return nil, -1, false, err
		}
		d := st.regs[in.Dst]
		if d.constKnow {
			d.constVal = -d.constVal
		}
		st.regs[in.Dst] = d
		return st, -1, false, nil

	case OpLdxCtx:
		if err := writesDst(); err != nil {
			return nil, -1, false, err
		}
		if st.regs[in.Src].kind != kindPtrCtx {
			return nil, -1, false, v.errf(i, "context load from non-context register %v", in.Src)
		}
		if in.Off%8 != 0 || in.Off < 0 || int(in.Off/8) >= v.ctxWords {
			return nil, -1, false, v.errf(i, "context offset %d invalid for %d words", in.Off, v.ctxWords)
		}
		st.regs[in.Dst] = regState{kind: kindScalar}
		return st, -1, false, nil

	case OpLdxStack:
		if err := writesDst(); err != nil {
			return nil, -1, false, err
		}
		lo, err := v.stackRange(i, st, in.Src, in.Off, in.Size)
		if err != nil {
			return nil, -1, false, err
		}
		for b := lo; b < lo+int(in.Size); b++ {
			if !st.stack[b] {
				return nil, -1, false, v.errf(i, "read of uninitialized stack byte fp%+d", b-StackSize)
			}
		}
		st.regs[in.Dst] = regState{kind: kindScalar}
		return st, -1, false, nil

	case OpStxStack:
		if err := requireInit(in.Src, "stored value"); err != nil {
			return nil, -1, false, err
		}
		if st.regs[in.Src].kind == kindPtrCtx {
			return nil, -1, false, v.errf(i, "spilling context pointer to stack is not supported")
		}
		lo, err := v.stackRange(i, st, in.Dst, in.Off, in.Size)
		if err != nil {
			return nil, -1, false, err
		}
		markInit(st, lo, int(in.Size))
		return st, -1, false, nil

	case OpStImmStack:
		lo, err := v.stackRange(i, st, in.Dst, in.Off, in.Size)
		if err != nil {
			return nil, -1, false, err
		}
		markInit(st, lo, int(in.Size))
		return st, -1, false, nil

	case OpJa:
		if in.Off < 0 {
			return nil, -1, false, v.errf(i, "backward jump")
		}
		return nil, i + 1 + int(in.Off), false, nil

	case OpJeqImm, OpJneImm, OpJgtImm, OpJgeImm, OpJltImm, OpJleImm:
		if err := requireInit(in.Dst, "compared"); err != nil {
			return nil, -1, false, err
		}
		if in.Off < 0 {
			return nil, -1, false, v.errf(i, "backward jump")
		}
		return st, i + 1 + int(in.Off), false, nil

	case OpJeqReg, OpJneReg, OpJgtReg, OpJgeReg, OpJltReg, OpJleReg:
		if err := requireInit(in.Dst, "compared"); err != nil {
			return nil, -1, false, err
		}
		if err := requireInit(in.Src, "compared"); err != nil {
			return nil, -1, false, err
		}
		if in.Off < 0 {
			return nil, -1, false, v.errf(i, "backward jump")
		}
		return st, i + 1 + int(in.Off), false, nil

	case OpCall:
		if err := v.checkHelper(i, HelperID(in.Imm), st); err != nil {
			return nil, -1, false, err
		}
		st.regs[R0] = regState{kind: kindScalar}
		for r := R1; r <= R5; r++ {
			st.regs[r] = regState{kind: kindUninit}
		}
		return st, -1, false, nil

	case OpExit:
		if k := st.regs[R0].kind; k != kindScalar {
			return nil, -1, false, v.errf(i, "exit with r0 %v", k)
		}
		return nil, -1, true, nil
	}
	return nil, -1, false, v.errf(i, "unknown opcode %v", in.Op)
}

func markInit(st *absState, lo, n int) {
	for b := lo; b < lo+n; b++ {
		st.stack[b] = true
	}
}

// stackRange validates a stack access through base+off with the given width
// and returns the low byte index into the stack array.
func (v *verifier) stackRange(i int, st *absState, base Reg, off int32, size uint8) (int, error) {
	switch size {
	case 1, 2, 4, 8:
	default:
		return 0, v.errf(i, "invalid access size %d", size)
	}
	bs := st.regs[base]
	if bs.kind != kindPtrStack {
		return 0, v.errf(i, "memory access through %v register %v", bs.kind, base)
	}
	eff := bs.constVal + int64(off)
	if eff < -StackSize || eff+int64(size) > 0 {
		return 0, v.errf(i, "stack access fp%+d size %d out of bounds", eff, size)
	}
	// The access resolves to one provably in-bounds frame index (merged
	// states with differing stack-pointer offsets collapse to bottom and
	// are rejected above); record it for the decoder.
	v.prog.memLo[i] = int32(eff + StackSize)
	return int(eff + StackSize), nil
}

func (v *verifier) checkHelper(i int, h HelperID, st *absState) error {
	scalar := func(r Reg) error {
		if st.regs[r].kind != kindScalar {
			return v.errf(i, "%v arg %v must be scalar, is %v", h, r, st.regs[r].kind)
		}
		return nil
	}
	constScalar := func(r Reg) (int64, error) {
		if err := scalar(r); err != nil {
			return 0, err
		}
		if !st.regs[r].constKnow {
			return 0, v.errf(i, "%v arg %v must be a known constant", h, r)
		}
		return st.regs[r].constVal, nil
	}
	stackPtr := func(r Reg) (int64, error) {
		if st.regs[r].kind != kindPtrStack {
			return 0, v.errf(i, "%v arg %v must be stack pointer, is %v", h, r, st.regs[r].kind)
		}
		return st.regs[r].constVal, nil
	}
	mapFD := func(r Reg) error {
		fd, err := constScalar(r)
		if err != nil {
			return err
		}
		if v.maps != nil && v.maps(fd) == nil {
			return v.errf(i, "%v: no map with fd %d", h, fd)
		}
		// The fd is a proven constant here (states merging conflicting
		// constants lose constKnow and are rejected above), so the call
		// site resolves to exactly one map; remember it for the decoder.
		v.prog.callMapFD[i] = fd
		return nil
	}

	switch h {
	case HelperMapLookup, HelperMapLookupExist, HelperMapDelete:
		if err := mapFD(R1); err != nil {
			return err
		}
		return scalar(R2)
	case HelperMapUpdate:
		if err := mapFD(R1); err != nil {
			return err
		}
		if err := scalar(R2); err != nil {
			return err
		}
		return scalar(R3)
	case HelperProbeRead, HelperProbeReadStr:
		off, err := stackPtr(R1)
		if err != nil {
			return err
		}
		size, err := constScalar(R2)
		if err != nil {
			return err
		}
		if size <= 0 || off+size > 0 || off < -StackSize {
			return v.errf(i, "%v destination fp%+d size %d out of stack", h, off, size)
		}
		if err := scalar(R3); err != nil {
			return err
		}
		// The helper initializes the destination bytes (on fault it zero
		// fills, as bpf_probe_read does).
		markInit(st, int(off+StackSize), int(size))
		return nil
	case HelperPerfOutput:
		if err := mapFD(R1); err != nil {
			return err
		}
		off, err := stackPtr(R2)
		if err != nil {
			return err
		}
		size, err := constScalar(R3)
		if err != nil {
			return err
		}
		if size <= 0 || off+size > 0 || off < -StackSize {
			return v.errf(i, "%v source fp%+d size %d out of stack", h, off, size)
		}
		for b := int(off + StackSize); b < int(off+StackSize+size); b++ {
			if !st.stack[b] {
				return v.errf(i, "%v reads uninitialized stack byte fp%+d", h, b-StackSize)
			}
		}
		return nil
	case HelperKtimeGetNs, HelperGetCurrentPid, HelperGetSmpProcID:
		return nil
	}
	return v.errf(i, "unknown helper %d", int64(h))
}

func constALU(op Op, a, b int64) int64 {
	ua, ub := uint64(a), uint64(b)
	switch op {
	case OpAddReg:
		return a + b
	case OpSubReg:
		return a - b
	case OpMulReg, OpMulImm:
		return a * b
	case OpDivReg, OpDivImm:
		if ub == 0 {
			return 0
		}
		return int64(ua / ub)
	case OpModReg, OpModImm:
		if ub == 0 {
			return 0
		}
		return int64(ua % ub)
	case OpAndReg, OpAndImm:
		return a & b
	case OpOrReg, OpOrImm:
		return a | b
	case OpXorReg, OpXorImm:
		return a ^ b
	case OpLshImm:
		return int64(ua << (ub & 63))
	case OpRshImm:
		return int64(ua >> (ub & 63))
	}
	return 0
}
