package ebpf

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/tracesynth/rostracer/internal/umem"
)

// Decoded-dispatch equivalence: the same program run through the raw
// reference interpreter and through the pre-resolved form must produce the
// same ExecResult (including the retired-instruction count the overhead
// accounting depends on) and leave identical map state behind.

// equivFixture is one independently constructed program + map world.
type equivFixture struct {
	prog *Program
	hash *HashMap
	arr  arrayMap
	pb   *PerfBuffer
	maps map[int64]Map
}

// arrayMap is a fixed-size, zero-initialized array map: a Map other than
// HashMap, so the fixture's programs exercise the generic map calls.
type arrayMap []uint64

func (a arrayMap) Name() string { return "a" }

func (a arrayMap) Lookup(key uint64) (uint64, bool) {
	if key >= uint64(len(a)) {
		return 0, false
	}
	return a[key], true
}

func (a arrayMap) Update(key, value uint64) error {
	if key >= uint64(len(a)) {
		return fmt.Errorf("array map index %d out of range", key)
	}
	a[key] = value
	return nil
}

func (a arrayMap) Delete(key uint64) {
	if key < uint64(len(a)) {
		a[key] = 0
	}
}

func newEquivFixture(t *testing.T, build func() *Program, ctxWords int) *equivFixture {
	t.Helper()
	f := &equivFixture{
		hash: NewHashMap("h", 64),
		arr:  make(arrayMap, 8),
		pb:   NewPerfBuffer("pb", 0, new(uint64)),
		prog: build(),
	}
	f.maps = map[int64]Map{3: f.hash, 4: f.pb, 5: f.arr}
	f.hash.Update(10, 111)
	f.hash.Update(11, 222)
	f.arr.Update(2, 333)
	mustVerify(t, f.prog, ctxWords, f.maps)
	return f
}

// decodedFixture verifies build's program against the fixture maps and
// installs its decoded form, as Runtime.Load does.
func decodedFixture(t *testing.T, build func() *Program, ctxWords int) *equivFixture {
	t.Helper()
	f := newEquivFixture(t, build, ctxWords)
	maps := f.maps
	if err := decode(f.prog, func(fd int64) Map { return maps[fd] }); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *equivFixture) mapState() (hash map[uint64]uint64, arr []uint64, recs []PerfRecord) {
	hash = make(map[uint64]uint64)
	for _, k := range f.hash.Keys() {
		v, _ := f.hash.Lookup(k)
		hash[k] = v
	}
	for k := uint64(0); k < 8; k++ {
		v, _ := f.arr.Lookup(k)
		arr = append(arr, v)
	}
	recs = drainSorted(f.pb)
	return hash, arr, recs
}

// runEquiv runs build twice — raw and decoded, the form Load installs —
// against every ctx and compares results and final map state.
func runEquiv(t *testing.T, name string, build func() *Program, ctxWords int, ctxs []*ExecContext) {
	t.Helper()
	raw := newEquivFixture(t, build, ctxWords)
	dec := decodedFixture(t, build, ctxWords)
	ref, decVM := &rawVM{maps: raw.maps}, NewVM()
	for i, ctx := range ctxs {
		rres, rerr := ref.RunInterpreted(raw.prog, ctx)
		ctx2 := *ctx // the decoded run gets its own copy
		dres := decVM.Run(dec.prog, &ctx2)
		if rerr != nil {
			t.Fatalf("%s ctx %d: raw err %v, decoded ran", name, i, rerr)
		}
		if rres != dres {
			t.Fatalf("%s ctx %d: raw %+v, decoded %+v", name, i, rres, dres)
		}
	}
	rh, ra, rr := raw.mapState()
	dh, da, dr := dec.mapState()
	if !reflect.DeepEqual(rh, dh) {
		t.Fatalf("%s: hash state diverged: raw %v, decoded %v", name, rh, dh)
	}
	if !reflect.DeepEqual(ra, da) {
		t.Fatalf("%s: array state diverged: raw %v, decoded %v", name, ra, da)
	}
	if !reflect.DeepEqual(rr, dr) {
		t.Fatalf("%s: perf records diverged: raw %v, decoded %v", name, rr, dr)
	}
}

// aluJumpProg exercises every ALU form, both jump polarities, shift
// masking, signed immediates, and division by zero.
func aluJumpProg() *Program {
	return NewAssembler("alu_jump").
		LdxCtx(R6, R1, 0).
		MovImm(R0, 10).
		AddImm(R0, -3). // signed immediate widening
		MovImm(R2, 7).
		MulImm(R2, 6).
		AddReg(R0, R2).
		SubImm(R0, 1).
		SubReg(R0, R2).
		DivImm(R0, 0). // div by zero -> 0
		AddReg(R0, R6).
		ModImm(R0, 97).
		AndImm(R0, 0xffff).
		OrImm(R0, 0x100).
		XorReg(R0, R2).
		LshImm(R0, 65). // masked to 1
		RshImm(R0, 2).
		JgtImm(R6, 100, "big").
		AddImm(R0, 1000). // small path
		Ja("join").
		Label("big").
		AddImm(R0, 2000).
		Label("join").
		JneReg(R0, R6, "done").
		MovImm(R0, 0).
		Label("done").
		Exit().
		MustAssemble()
}

// helperProg exercises every helper with decode-bound maps: update,
// lookup, exist, delete, probe_read, probe_read_str, perf_event_output,
// ktime, pid, cpu.
func helperProg() *Program {
	return NewAssembler("helpers").
		LdxCtx(R6, R1, 0). // value to store
		LdxCtx(R7, R1, 1). // address to probe_read
		// h[10] = ctx[0]
		MovImm(R1, 3).
		MovImm(R2, 10).
		MovReg(R3, R6).
		Call(HelperMapUpdate).
		// r8 = h[10]
		MovImm(R1, 3).
		MovImm(R2, 10).
		Call(HelperMapLookup).
		MovReg(R8, R0).
		// r8 += exists(h[99])
		MovImm(R1, 3).
		MovImm(R2, 99).
		Call(HelperMapLookupExist).
		AddReg(R8, R0).
		// delete h[11]
		MovImm(R1, 3).
		MovImm(R2, 11).
		Call(HelperMapDelete).
		// a[2] += nothing; read array a[2] into r8
		MovImm(R1, 5).
		MovImm(R2, 2).
		Call(HelperMapLookup).
		AddReg(R8, R0).
		// probe_read 8 bytes from ctx[1] into fp-16
		MovReg(R1, R10).
		SubImm(R1, 16).
		MovImm(R2, 8).
		MovReg(R3, R7).
		Call(HelperProbeRead).
		AddReg(R8, R0). // fault flag folds into result
		LdxStack(R4, R10, -16, 8).
		AddReg(R8, R4).
		// probe_read_str up to 15+NUL bytes from ctx[1] into fp-32
		MovReg(R1, R10).
		SubImm(R1, 32).
		MovImm(R2, 16).
		MovReg(R3, R7).
		Call(HelperProbeReadStr).
		AddReg(R8, R0). // returned length
		// perf_event_output the probe_read bytes
		StImmStack(R10, -40, 0x1122334455667788, 8).
		MovImm(R1, 4).
		MovReg(R2, R10).
		SubImm(R2, 40).
		MovImm(R3, 8).
		Call(HelperPerfOutput).
		// time / pid / cpu
		Call(HelperKtimeGetNs).
		AddReg(R8, R0).
		Call(HelperGetCurrentPid).
		AddReg(R8, R0).
		Call(HelperGetSmpProcID).
		AddReg(R8, R0).
		MovReg(R0, R8).
		Exit().
		MustAssemble()
}

func equivSpace() (*umem.Space, uint64) {
	sp := umem.NewSpace(1)
	addr := sp.AllocBytes([]byte("decoded-vs-raw!\x00extra"))
	return sp, uint64(addr)
}

func TestDecodedEquivalenceALU(t *testing.T) {
	ctxs := []*ExecContext{
		{Words: []uint64{0}},
		{Words: []uint64{55}},
		{Words: []uint64{101}},     // takes the "big" branch
		{Words: []uint64{1 << 40}}, // large word
		{},                         // missing ctx words read as zero
	}
	runEquiv(t, "alu_jump", aluJumpProg, 1, ctxs)
}

func TestDecodedEquivalenceHelpers(t *testing.T) {
	sp, addr := equivSpace()
	ctxs := []*ExecContext{
		{PID: 42, CPU: 1, NowNs: 1111, Words: []uint64{7, addr}, Mem: sp},
		{PID: 43, CPU: 0, NowNs: 2222, Words: []uint64{9, addr + 4}, Mem: sp},
		{PID: 44, CPU: 3, NowNs: 3333, Words: []uint64{1, 0xdead_0000}, Mem: sp}, // faulting address
		{PID: 45, CPU: 2, NowNs: 4444, Words: []uint64{2, addr}},                 // nil Mem
	}
	runEquiv(t, "helpers", helperProg, 2, ctxs)
}

// TestDecodeBindsMaps checks the decoder resolved every map call site.
func TestDecodeBindsMaps(t *testing.T) {
	f := decodedFixture(t, helperProg, 2)
	calls := f.prog.dp.calls
	bound := 0
	for _, c := range calls {
		if c.m != nil {
			bound++
		}
	}
	if bound != 6 { // update, lookup, exist, delete, array lookup, perf output
		t.Fatalf("bound %d map call sites, want 6", bound)
	}
	for i, c := range calls {
		if c.helper == HelperPerfOutput && c.pb == nil {
			t.Fatalf("perf output call %d not bound to a perf buffer", i)
		}
	}
}

// TestRuntimeLoadDecodes checks Load installs the decoded form.
func TestRuntimeLoadDecodes(t *testing.T) {
	rt := NewRuntime(nil, nil)
	pb := NewPerfBuffer("pb", 0, new(uint64))
	fd := rt.RegisterMap(pb)
	p := NewAssembler("emit").
		StImmStack(R10, -8, 1, 8).
		MovImm(R1, fd).
		MovReg(R2, R10).
		SubImm(R2, 8).
		MovImm(R3, 8).
		Call(HelperPerfOutput).
		MovImm(R0, 0).
		Exit().
		MustAssemble()
	if err := rt.Load(p, 1); err != nil {
		t.Fatal(err)
	}
	if p.dp == nil {
		t.Fatal("Load did not decode the program")
	}
}

// TestFireNoAlloc checks the fire paths the middleware and the
// scheduler bridge run — ProbeSite.FireEntry/FireReturn and
// TracepointSite.Fire — perform no per-fire heap allocations beyond what
// the program itself emits, from the first fire on: the dispatch form is
// final at Load, so no later fire rebuilds it.
func TestFireNoAlloc(t *testing.T) {
	sym := Symbol{Lib: "lib", Func: "fn"}
	const tpName = "sched:sched_switch"
	load := func() (*ProbeSite, *TracepointSite) {
		rt := NewRuntime(func() int64 { return 5 }, nil)
		fd := rt.RegisterMap(NewHashMap("h", 16))
		p := NewAssembler("count").
			LdxCtx(R6, R1, 0).
			MovImm(R1, fd).
			MovReg(R2, R6).
			MovImm(R3, 1).
			Call(HelperMapUpdate).
			MovImm(R0, 0).
			Exit().
			MustAssemble()
		if err := rt.Load(p, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.AttachUprobe(sym, p); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.AttachUretprobe(sym, p); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.AttachTracepoint(tpName, p); err != nil {
			t.Fatal(err)
		}
		site, tp := rt.Site(sym), rt.TracepointSiteFor(tpName)
		// Warm up the scratch buffers and the map.
		site.FireEntry(1, 0, 1)
		site.FireReturn(1, 0, 7, 1, 2)
		tp.Fire(0, 1, 2, 3, 4, 5)
		return site, tp
	}

	site, tp := load()
	fires := []struct {
		name string
		fn   func()
	}{
		{"ProbeSite.FireEntry", func() { site.FireEntry(1, 0, 1) }},
		{"ProbeSite.FireReturn", func() { site.FireReturn(1, 0, 7, 1, 2) }},
		{"TracepointSite.Fire", func() { tp.Fire(0, 1, 2, 3, 4, 5) }},
	}
	for _, f := range fires {
		if allocs := testing.AllocsPerRun(100, f.fn); allocs > 0 {
			t.Fatalf("%s allocates %.1f times per fire, want 0", f.name, allocs)
		}
	}

	// testing.AllocsPerRun warms up with one extra run of its own, so a
	// fire-path allocation at a fixed run count would slip past it. Count
	// mallocs over a long stretch of fires right after the first one.
	site, tp = load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		site.FireEntry(1, 0, 1)
		site.FireReturn(1, 0, 7, 1, 2)
		tp.Fire(0, 1, 2, 3, 4, 5)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("1000 fires after the first allocate %d times, want 0", n)
	}
}
