package dds

import (
	"testing"
	"testing/quick"

	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/umem"
)

func newTestDomain() (*sim.Engine, *Domain) {
	eng := sim.NewEngine()
	rt := ebpf.NewRuntime(func() int64 { return int64(eng.Now()) }, nil)
	d := NewDomain(eng, rt, sim.NewRNG(1))
	return eng, d
}

func TestWriteDeliversToAllReaders(t *testing.T) {
	eng, d := newTestDomain()
	space := umem.NewSpace(1)
	w := d.CreateWriter(1, space, "/x")

	got := make(map[int]int)
	for i := 0; i < 3; i++ {
		i := i
		d.CreateReader("/x", func(s *Sample) { got[i]++ })
	}
	w.Write("payload", 0, 0)
	w.Write("payload", 0, 0)
	eng.Run(sim.MaxTime)

	for i := 0; i < 3; i++ {
		if got[i] != 2 {
			t.Errorf("reader %d received %d samples, want 2", i, got[i])
		}
	}
}

func TestSrcTSAssignedAtWriteTime(t *testing.T) {
	eng, d := newTestDomain()
	space := umem.NewSpace(1)
	w := d.CreateWriter(1, space, "/x")
	var deliveredAt sim.Time
	var srcTS sim.Time
	d.CreateReader("/x", func(s *Sample) {
		deliveredAt = eng.Now()
		srcTS = s.SrcTS
	})
	eng.At(500, func() { w.Write(nil, 0, 0) })
	eng.Run(sim.MaxTime)
	if srcTS != 500 {
		t.Errorf("srcTS = %v, want 500 (write time)", srcTS)
	}
	if deliveredAt <= srcTS {
		t.Errorf("delivery at %v not after write %v (transport latency)", deliveredAt, srcTS)
	}
}

func TestDeliveryRespectsLatencyModel(t *testing.T) {
	eng, d := newTestDomain()
	d.Latency = sim.Constant{Value: 5 * sim.Millisecond}
	space := umem.NewSpace(1)
	w := d.CreateWriter(1, space, "/x")
	var at sim.Time
	d.CreateReader("/x", func(*Sample) { at = eng.Now() })
	w.Write(nil, 0, 0)
	eng.Run(sim.MaxTime)
	if at != sim.Time(5*sim.Millisecond) {
		t.Errorf("delivered at %v", at)
	}
}

func TestWriteFiresP16WithTopicAndSrcTS(t *testing.T) {
	eng := sim.NewEngine()
	spaces := map[uint32]*umem.Space{7: umem.NewSpace(7)}
	rt := ebpf.NewRuntime(func() int64 { return int64(eng.Now()) },
		func(pid uint32) *umem.Space { return spaces[pid] })
	d := NewDomain(eng, rt, sim.NewRNG(1))

	// Attach a program reading the writer struct's topic pointer.
	pb := ebpf.NewPerfBuffer("out", 0, new(uint64))
	fd := rt.RegisterMap(pb)
	a := ebpf.NewAssembler("p16ish")
	a.LdxCtx(ebpf.R6, ebpf.R1, 0)
	a.LdxCtx(ebpf.R7, ebpf.R1, 2)
	a.MovReg(ebpf.R1, ebpf.R10).AddImm(ebpf.R1, -72).MovImm(ebpf.R2, 8).MovReg(ebpf.R3, ebpf.R6)
	a.Call(ebpf.HelperProbeRead)
	a.LdxStack(ebpf.R9, ebpf.R10, -72, 8)
	a.MovReg(ebpf.R1, ebpf.R10).AddImm(ebpf.R1, -64).MovImm(ebpf.R2, 64).MovReg(ebpf.R3, ebpf.R9)
	a.Call(ebpf.HelperProbeReadStr)
	a.StxStack(ebpf.R10, -72, ebpf.R7, 8)
	a.MovImm(ebpf.R1, fd).MovReg(ebpf.R2, ebpf.R10).AddImm(ebpf.R2, -72).MovImm(ebpf.R3, 72)
	a.Call(ebpf.HelperPerfOutput)
	a.MovImm(ebpf.R0, 0).Exit()
	p := a.MustAssemble()
	if err := rt.Load(p, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AttachUprobe(SymWrite, p); err != nil {
		t.Fatal(err)
	}

	w := d.CreateWriter(7, spaces[7], "motion/cmd")
	eng.At(1234, func() { w.Write(nil, 0, 0) })
	eng.Run(sim.MaxTime)

	var c ebpf.RecordCursor
	pb.DrainCursorInto(&c, 0) // the probe fired on CPU 0
	if c.Len() != 1 {
		t.Fatalf("records = %d", c.Len())
	}
	rec, _ := c.Next()
	// fp-72 holds srcTS; fp-64.. holds topic string.
	srcTS := int64(rec.Data[0]) | int64(rec.Data[1])<<8
	if srcTS != 1234 {
		t.Errorf("srcTS = %d", srcTS)
	}
	topic := rec.Data[8:]
	n := 0
	for n < len(topic) && topic[n] != 0 {
		n++
	}
	if string(topic[:n]) != "motion/cmd" {
		t.Errorf("topic = %q", topic[:n])
	}
}

func TestServiceTopicNaming(t *testing.T) {
	cases := []struct {
		svc  string
		req  string
		resp string
	}{
		{"sv1", "rq/sv1Request", "rr/sv1Reply"},
		{"motion/plan", "rq/motion/planRequest", "rr/motion/planReply"},
	}
	for _, c := range cases {
		if got := ServiceRequestTopic(c.svc); got != c.req {
			t.Errorf("request topic %q", got)
		}
		if got := ServiceResponseTopic(c.svc); got != c.resp {
			t.Errorf("response topic %q", got)
		}
		if !IsRequestTopic(c.req) || IsResponseTopic(c.req) {
			t.Errorf("classification of %q wrong", c.req)
		}
		if !IsResponseTopic(c.resp) || IsRequestTopic(c.resp) {
			t.Errorf("classification of %q wrong", c.resp)
		}
		if ServiceOfTopic(c.req) != c.svc || ServiceOfTopic(c.resp) != c.svc {
			t.Errorf("service extraction broken for %q", c.svc)
		}
	}
	if ServiceOfTopic("/plain") != "" {
		t.Error("plain topic classified as service")
	}
}

func TestServiceTopicRoundTripProperty(t *testing.T) {
	f := func(name string) bool {
		if name == "" || len(name) > 100 {
			return true
		}
		return ServiceOfTopic(ServiceRequestTopic(name)) == name &&
			ServiceOfTopic(ServiceResponseTopic(name)) == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTopicPanics(t *testing.T) {
	_, d := newTestDomain()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty topic")
		}
	}()
	d.CreateWriter(1, umem.NewSpace(1), "")
}

// TestBatchedDeliveryCoalescesSameTick pins the batched delivery
// contract: samples due at one reader in the same tick ride a single
// engine event, arrive in write order, and the engine dispatches one
// delivery event per batch rather than one per sample.
func TestBatchedDeliveryCoalescesSameTick(t *testing.T) {
	eng, d := newTestDomain()
	d.Latency = sim.Constant{Value: 50 * sim.Microsecond}
	space := umem.NewSpace(1)
	wA := d.CreateWriter(1, space, "/x")
	wB := d.CreateWriter(2, space, "/x")

	var order []interface{}
	d.CreateReader("/x", func(s *Sample) { order = append(order, s.Payload) })

	// Three same-tick writes: constant latency makes all three due at
	// now+50µs for the one reader.
	wA.Write("a1", 0, 0)
	wB.Write("b1", 0, 0)
	wA.Write("a2", 0, 0)
	execBefore := eng.Executed()
	eng.Run(sim.MaxTime)

	if got := eng.Executed() - execBefore; got != 1 {
		t.Fatalf("engine dispatched %d delivery events, want 1 (batched)", got)
	}
	want := []interface{}{"a1", "b1", "a2"}
	if len(order) != len(want) {
		t.Fatalf("delivered %d samples, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v (write order pinned)", order, want)
		}
	}
}

// TestBatchedDeliveryKeepsTicksApart checks distinct due ticks (and
// distinct readers) do not coalesce, and each reader's batch preserves
// write order.
func TestBatchedDeliveryKeepsTicksApart(t *testing.T) {
	eng, d := newTestDomain()
	d.Latency = sim.Constant{Value: sim.Millisecond}
	space := umem.NewSpace(1)
	w := d.CreateWriter(1, space, "/x")

	var got []sim.Time
	d.CreateReader("/x", func(*Sample) { got = append(got, eng.Now()) })
	d.CreateReader("/x", func(*Sample) {})

	w.Write(1, 0, 0) // due at 1ms
	eng.Run(sim.Time(200 * sim.Microsecond))
	w.Write(2, 0, 0) // due at 1.2ms
	eng.Run(sim.MaxTime)

	// 2 writes × 2 readers at 2 distinct ticks = 4 delivery events, the
	// only events the engine runs.
	if eng.Executed() != 4 {
		t.Fatalf("engine dispatched %d delivery events, want 4", eng.Executed())
	}
	wantTimes := []sim.Time{sim.Time(sim.Millisecond), sim.Time(1200 * sim.Microsecond)}
	if len(got) != 2 || got[0] != wantTimes[0] || got[1] != wantTimes[1] {
		t.Fatalf("delivery times %v, want %v", got, wantTimes)
	}
}

// TestBatchedDeliveryDeterministic pins determinism: two identically
// seeded domains deliver identical sample sequences.
func TestBatchedDeliveryDeterministic(t *testing.T) {
	run := func() []uint64 {
		eng := sim.NewEngine()
		rt := ebpf.NewRuntime(func() int64 { return int64(eng.Now()) }, nil)
		d := NewDomain(eng, rt, sim.NewRNG(99))
		space := umem.NewSpace(1)
		w1 := d.CreateWriter(1, space, "/x")
		w2 := d.CreateWriter(2, space, "/x")
		var seen []uint64
		d.CreateReader("/x", func(s *Sample) { seen = append(seen, s.RPCSeq) })
		for i := 0; i < 50; i++ {
			i := i
			eng.At(sim.Time(i*10_000), func() {
				w1.Write(nil, 0, uint64(2*i))
				w2.Write(nil, 0, uint64(2*i+1))
			})
		}
		eng.Run(sim.MaxTime)
		return seen
	}
	a, b := run(), run()
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("delivered %d / %d samples, want 100 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestBatchedDeliveryZeroLatencyWriteBack pins the open-set rule: a
// batch leaves its reader's open set before its callbacks run, so a
// reader whose OnData writes back on its own topic with zero latency
// gets that sample in a second batch at the same tick, after every
// callback of the first.
func TestBatchedDeliveryZeroLatencyWriteBack(t *testing.T) {
	eng, d := newTestDomain()
	d.Latency = sim.Constant{}
	space := umem.NewSpace(1)
	w := d.CreateWriter(1, space, "/x")

	type arrival struct {
		payload interface{}
		at      sim.Time
		event   uint64 // the engine event that delivered it
	}
	var got []arrival
	d.CreateReader("/x", func(s *Sample) {
		got = append(got, arrival{s.Payload, eng.Now(), eng.Executed()})
		if s.Payload == "a" {
			w.Write("echo", 0, 0)
		}
	})
	eng.At(100, func() {
		w.Write("a", 0, 0)
		w.Write("b", 0, 0)
	})
	eng.Run(sim.MaxTime)

	// The writing event, then two delivery events.
	if n := eng.Executed(); n != 3 {
		t.Fatalf("engine dispatched %d events, want 3 (the write-back opens a second batch)", n)
	}
	want := []interface{}{"a", "b", "echo"}
	if len(got) != len(want) {
		t.Fatalf("arrivals %v, want payloads %v", got, want)
	}
	for i, a := range got {
		if a.payload != want[i] || a.at != 100 {
			t.Fatalf("arrival %d = %+v, want %v at tick 100", i, a, want[i])
		}
	}
	// "b" rode the first batch even though "echo" was written while the
	// first batch's callbacks ran.
	if got[1].event != got[0].event || got[2].event != got[0].event+1 {
		t.Fatalf("batch membership %+v, want a and b in one batch, echo in the next", got)
	}
}

// transportLog is both the latency model and a duplicating, delaying
// TransportFault. It draws at random and logs every draw, so a test can
// replay each write's fan-out (per reader in creation order: one Fate,
// then one latency draw per copy) and know every sample's due tick.
type transportLog struct {
	fates  []struct{ dups, extra int }
	delays []sim.Duration
}

func (l *transportLog) Fate(rng *sim.RNG) (bool, int, sim.Duration) {
	f := struct{ dups, extra int }{rng.Intn(3), rng.Intn(4)}
	l.fates = append(l.fates, f)
	return false, f.dups, sim.Duration(f.extra)
}

func (l *transportLog) Sample(rng *sim.RNG) sim.Duration {
	d := sim.Duration(rng.Intn(6))
	l.delays = append(l.delays, d)
	return d
}

func (l *transportLog) Bounds() (sim.Duration, sim.Duration) { return 0, 5 }

// TestBatchedDeliveryRecyclingKeepsBatchesExact checks recycled batch
// records against an independent account: over 1,000 ticks of writes
// with random latency and a duplicating fault, every OnData call sees
// exactly the samples due at its (reader, tick), in write order, and no
// recycled record carries a sample over from its previous use.
func TestBatchedDeliveryRecyclingKeepsBatchesExact(t *testing.T) {
	eng := sim.NewEngine()
	rt := ebpf.NewRuntime(func() int64 { return int64(eng.Now()) }, nil)
	rng := sim.NewRNG(42)
	d := NewDomain(eng, rt, rng)
	tl := &transportLog{}
	d.Latency, d.Fault = tl, tl
	space := umem.NewSpace(1)
	writers := []*Writer{d.CreateWriter(1, space, "/x"), d.CreateWriter(2, space, "/x")}

	const readers = 3
	type key struct {
		reader int
		due    sim.Time
	}
	want := make(map[key][]uint64) // replayed from the transport log
	got := make(map[key][]uint64)  // as OnData saw it
	batches := make(map[key]uint64)
	var lastEvent [readers]uint64
	for r := 0; r < readers; r++ {
		r := r
		d.CreateReader("/x", func(s *Sample) {
			k := key{r, eng.Now()}
			// Each batch is one engine event.
			if ev := eng.Executed(); ev != lastEvent[r] {
				lastEvent[r] = ev
				batches[k]++
			}
			got[k] = append(got[k], s.RPCSeq)
		})
	}

	var seq uint64
	for tick := 0; tick < 1000; tick++ {
		eng.At(sim.Time(tick), func() {
			for n := rng.Intn(3); n > 0; n-- {
				seq++
				tl.fates, tl.delays = tl.fates[:0], tl.delays[:0]
				writers[rng.Intn(len(writers))].Write(nil, 0, seq)
				for r := 0; r < readers; r++ {
					f := tl.fates[r]
					for c := 0; c <= f.dups; c++ {
						due := eng.Now().Add(tl.delays[0] + sim.Duration(f.extra))
						tl.delays = tl.delays[1:]
						want[key{r, due}] = append(want[key{r, due}], seq)
					}
				}
			}
		})
	}
	eng.Run(sim.MaxTime)
	if seq == 0 || d.FaultStats().Duplicated == 0 {
		t.Fatalf("no traffic (%d writes, %+v)", seq, d.FaultStats())
	}

	// Every engine event past the 1000 writing ticks is a delivery.
	if len(got) != len(want) || uint64(len(want)) != eng.Executed()-1000 {
		t.Fatalf("%d (reader, tick) batches delivered, %d due, %d delivery events",
			len(got), len(want), eng.Executed()-1000)
	}
	for k, w := range want {
		g := got[k]
		if batches[k] != 1 || len(g) != len(w) {
			t.Fatalf("reader %d tick %v: %d batches carrying %v, want one carrying %v", k.reader, k.due, batches[k], g, w)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("reader %d tick %v: got %v, want %v (write order)", k.reader, k.due, g, w)
			}
		}
	}
	if d.free == nil {
		t.Fatal("no batch returned to the free list")
	}
	for b := d.free; b != nil; b = b.next {
		if len(b.samples) != 0 || b.reader != nil {
			t.Fatalf("free batch still holds %d samples for reader %v", len(b.samples), b.reader)
		}
		for _, s := range b.samples[:cap(b.samples)] {
			if s != nil {
				t.Fatal("free batch's array still references a sample")
			}
		}
	}
}
