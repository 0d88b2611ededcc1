package rcl

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/umem"
)

func TestNewTimerHandleIsItsOwnAddress(t *testing.T) {
	space := umem.NewSpace(9)
	tm := NewTimer(space)
	if tm.CBID == 0 {
		t.Fatal("zero callback handle")
	}
	// The descriptor's first field holds the handle; a probe reading
	// *(u64*)(timer+TimerCBIDOff) must recover it.
	v, err := space.ReadU64(tm.Addr + umem.Addr(TimerCBIDOff))
	if err != nil || v != tm.CBID {
		t.Fatalf("descriptor field = %#x err=%v, want %#x", v, err, tm.CBID)
	}
}

func TestTimersHaveDistinctHandles(t *testing.T) {
	space := umem.NewSpace(10)
	a := NewTimer(space)
	b := NewTimer(space)
	if a.CBID == b.CBID || a.Addr == b.Addr {
		t.Fatalf("handles collide: %+v %+v", a, b)
	}
}

func TestTimerCallFiresP3WithDescriptor(t *testing.T) {
	space := umem.NewSpace(11)
	spaces := map[uint32]*umem.Space{11: space}
	rt := ebpf.NewRuntime(func() int64 { return 42 },
		func(pid uint32) *umem.Space { return spaces[pid] })
	tm := NewTimer(space)

	pb := ebpf.NewPerfBuffer("out", 0, new(uint64))
	fd := rt.RegisterMap(pb)
	p := ebpf.NewAssembler("p3ish").
		LdxCtx(ebpf.R6, ebpf.R1, 0).
		MovReg(ebpf.R1, ebpf.R10).
		AddImm(ebpf.R1, -8).
		MovImm(ebpf.R2, 8).
		MovReg(ebpf.R3, ebpf.R6).
		Call(ebpf.HelperProbeRead). // cbid = *(u64*)descriptor
		MovImm(ebpf.R1, fd).
		MovReg(ebpf.R2, ebpf.R10).
		AddImm(ebpf.R2, -8).
		MovImm(ebpf.R3, 8).
		Call(ebpf.HelperPerfOutput).
		MovImm(ebpf.R0, 0).
		Exit().
		MustAssemble()
	if err := rt.Load(p, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AttachUprobe(SymTimerCall, p); err != nil {
		t.Fatal(err)
	}

	TimerCall(rt, 11, 0, tm)
	var c ebpf.RecordCursor
	pb.DrainCursorInto(&c, 0) // the probe fired on CPU 0
	if c.Len() != 1 {
		t.Fatalf("records = %d", c.Len())
	}
	rec, _ := c.Next()
	got := uint64(0)
	for i := 7; i >= 0; i-- {
		got = got<<8 | uint64(rec.Data[i])
	}
	if got != tm.CBID {
		t.Fatalf("probed cbid %#x, want %#x", got, tm.CBID)
	}
}
