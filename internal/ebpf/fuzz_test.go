package ebpf

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/umem"
)

// TestVerifierSoundnessOnRandomPrograms is the substrate's core safety
// property, mirrored from the kernel's contract: any program the verifier
// accepts must execute without faulting — no out-of-bounds stack access,
// no bad helper calls, guaranteed termination — on arbitrary contexts.
// Each accepted program is decoded and run as Runtime.Load installs it;
// the installed form has no run-time checks, so a fault would panic.
func TestVerifierSoundnessOnRandomPrograms(t *testing.T) {
	rng := sim.NewRNG(2024)
	maps := map[int64]Map{
		1: NewHashMap("h", 64),
		2: NewPerfBuffer("p", 0, new(uint64)),
	}
	lookup := func(fd int64) Map { return maps[fd] }

	accepted, rejected := 0, 0
	for trial := 0; trial < 5000; trial++ {
		p := randomProgram(rng)
		err := Verify(p, VerifyOptions{CtxWords: 4, LookupMap: lookup})
		if err != nil {
			rejected++
			continue
		}
		accepted++
		space := umem.NewSpace(uint32(trial))
		addr := space.AllocU64(0xfeed)
		ctx := &ExecContext{
			PID: uint32(trial), CPU: 0, NowNs: int64(trial),
			Words: []uint64{uint64(addr), rng.Uint64() % 1024, 0, uint64(addr)},
			Mem:   space,
		}
		if err := decode(p, lookup); err != nil {
			t.Fatalf("decode of a verified program failed: %v\nprogram: %v", err, p.Insns)
		}
		checkInstalled(t, p)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("verified program faulted at runtime: %v\nprogram: %v", r, p.Insns)
				}
			}()
			NewVM().Run(p, ctx)
		}()
	}
	if accepted == 0 {
		t.Fatal("no random program was ever accepted; generator too wild to be useful")
	}
	if rejected == 0 {
		t.Fatal("no random program was ever rejected; generator too tame to be useful")
	}
	t.Logf("accepted %d / rejected %d", accepted, rejected)
}

// randomProgram emits a random but loosely plausible instruction sequence.
func randomProgram(rng *sim.RNG) *Program {
	n := 3 + rng.Intn(20)
	insns := make([]Instruction, 0, n+2)
	// Bias toward initializing some registers early so a useful fraction
	// of programs verifies.
	insns = append(insns, Instruction{Op: OpMovImm, Dst: R0, Imm: int64(rng.Intn(100))})
	for i := 0; i < n; i++ {
		var in Instruction
		switch rng.Intn(12) {
		case 0:
			in = Instruction{Op: OpMovImm, Dst: Reg(rng.Intn(11)), Imm: int64(rng.Intn(512)) - 256}
		case 1:
			in = Instruction{Op: OpMovReg, Dst: Reg(rng.Intn(11)), Src: Reg(rng.Intn(11))}
		case 2:
			in = Instruction{Op: OpAddImm, Dst: Reg(rng.Intn(11)), Imm: int64(rng.Intn(64)) - 32}
		case 3:
			in = Instruction{Op: OpLdxCtx, Dst: Reg(rng.Intn(11)), Src: R1, Off: int32(rng.Intn(6) * 8)}
		case 4:
			in = Instruction{Op: OpStxStack, Dst: R10, Src: Reg(rng.Intn(11)),
				Off: -int32(8 * (1 + rng.Intn(70))), Size: 8}
		case 5:
			in = Instruction{Op: OpLdxStack, Dst: Reg(rng.Intn(11)), Src: R10,
				Off: -int32(8 * (1 + rng.Intn(70))), Size: 8}
		case 6:
			in = Instruction{Op: OpJeqImm, Dst: Reg(rng.Intn(11)), Imm: int64(rng.Intn(8)),
				Off: int32(rng.Intn(4))}
		case 7:
			in = Instruction{Op: OpCall, Imm: int64([]HelperID{
				HelperMapLookup, HelperMapUpdate, HelperKtimeGetNs,
				HelperGetCurrentPid, HelperProbeRead, HelperPerfOutput,
			}[rng.Intn(6)])}
		case 8:
			in = Instruction{Op: OpMulImm, Dst: Reg(rng.Intn(11)), Imm: int64(rng.Intn(16))}
		case 9:
			in = Instruction{Op: OpDivReg, Dst: Reg(rng.Intn(11)), Src: Reg(rng.Intn(11))}
		case 10:
			in = Instruction{Op: OpStImmStack, Dst: R10, Imm: int64(rng.Intn(256)),
				Off: -int32(8 * (1 + rng.Intn(70))), Size: 8}
		default:
			in = Instruction{Op: OpExit}
		}
		insns = append(insns, in)
	}
	insns = append(insns, Instruction{Op: OpMovImm, Dst: R0}, Instruction{Op: OpExit})
	return &Program{Name: "fuzz", Insns: insns}
}
