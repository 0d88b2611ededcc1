package ebpf

import (
	"encoding/binary"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// ringRecords drains one CPU's ring through DrainCursorInto and returns
// its records in emission order. The cursor is never released, so the
// records keep their arena chunks and may be retained.
func ringRecords(pb *PerfBuffer, cpu int) []PerfRecord {
	var c RecordCursor
	pb.DrainCursorInto(&c, cpu)
	var out []PerfRecord
	for rec, ok := c.Next(); ok; rec, ok = c.Next() {
		out = append(out, rec)
	}
	return out
}

// drainSorted drains every ring of pb and stably sorts the records by
// (Time, Seq): the merged-order oracle for tests, independent of the
// production merge (trace.MergeStream). Ties fall to the lower CPU.
func drainSorted(pb *PerfBuffer) []PerfRecord {
	var out []PerfRecord
	for cpu := 0; cpu < pb.NumRings(); cpu++ {
		out = append(out, ringRecords(pb, cpu)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// totals sums pb's per-CPU ring accounting.
func totals(pb *PerfBuffer) RingStats {
	var t RingStats
	for cpu := 0; cpu < pb.NumRings(); cpu++ {
		r := pb.Ring(cpu)
		t.Pending += r.Pending
		t.Lost += r.Lost
		t.Bytes += r.Bytes
	}
	return t
}

// TestPerfBufferPerCPUAccounting checks that capacity, lost and byte
// counters are tracked per CPU ring.
func TestPerfBufferPerCPUAccounting(t *testing.T) {
	pb := NewPerfBuffer("rings", 2, new(uint64))
	// CPU 0: exactly at capacity. CPU 1: one over. CPU 3: three over,
	// leaving CPU 2 as a never-emitting hole in the ring set.
	pb.Emit(0, 1, []byte{1, 1})
	pb.Emit(0, 2, []byte{2, 2})
	for i := 0; i < 3; i++ {
		pb.Emit(1, 3, []byte{3, 3, 3})
	}
	for i := 0; i < 5; i++ {
		pb.Emit(3, 4, []byte{4})
	}

	if got := pb.NumRings(); got != 4 {
		t.Fatalf("NumRings = %d, want 4", got)
	}
	want := []RingStats{{2, 0, 4}, {2, 1, 6}, {}, {2, 3, 2}}
	for cpu, w := range want {
		if got := pb.Ring(cpu); got != w {
			t.Errorf("Ring(%d) = %+v, want %+v", cpu, got, w)
		}
	}
	if got := totals(pb); got != (RingStats{6, 4, 12}) {
		t.Errorf("totals = %+v, want 6 pending, 4 lost, 12 bytes", got)
	}
	// Out-of-range CPUs are empty, not a panic.
	if pb.Ring(-1) != (RingStats{}) || pb.Ring(99) != (RingStats{}) {
		t.Error("out-of-range CPU accounting not zero")
	}

	// A drain empties pending but keeps cumulative lost/byte counters.
	if got := len(drainSorted(pb)); got != 6 {
		t.Fatalf("drained %d records, want 6", got)
	}
	if got := totals(pb); got != (RingStats{0, 4, 12}) {
		t.Errorf("post-drain totals = %+v", got)
	}
	// Capacity frees up after the drain.
	pb.Emit(1, 9, []byte{9})
	if r := pb.Ring(1); r.Lost != 1 || r.Pending != 1 {
		t.Errorf("ring 1 after drain: %+v", r)
	}
}

// TestPerfBufferMergedDrainOrder interleaves emissions across CPUs and
// checks that the rings, merged by (Time, Seq), reproduce emission order:
// the buffer's own emission counter stamps a Seq that breaks every time
// tie, within and across rings, which is the order trace.MergeStream
// relies on.
func TestPerfBufferMergedDrainOrder(t *testing.T) {
	pb := NewPerfBuffer("merge", 0, new(uint64))
	// (cpu, time) in emission order; times repeat across and within CPUs.
	emissions := []struct {
		cpu  int
		time int64
	}{
		{2, 10}, {0, 10}, {1, 11}, {0, 11}, {2, 11}, {1, 12}, {0, 12}, {0, 12},
	}
	for i, e := range emissions {
		pb.Emit(e.cpu, e.time, []byte{byte(i)})
	}
	recs := drainSorted(pb)
	if len(recs) != len(emissions) {
		t.Fatalf("drained %d records, want %d", len(recs), len(emissions))
	}
	for i, rec := range recs {
		if int(rec.Data[0]) != i {
			t.Fatalf("record %d is emission %d; (Time, Seq) order broke emission order", i, rec.Data[0])
		}
		if rec.CPU != emissions[i].cpu || rec.Time != emissions[i].time {
			t.Fatalf("record %d = cpu%d t=%d, want cpu%d t=%d",
				i, rec.CPU, rec.Time, emissions[i].cpu, emissions[i].time)
		}
	}
	if p := totals(pb).Pending; p != 0 {
		t.Fatalf("pending after drain = %d", p)
	}
}

// TestPerfBufferRingDrainsIndependent checks single-ring drains are
// independent.
func TestPerfBufferRingDrainsIndependent(t *testing.T) {
	pb := NewPerfBuffer("single", 0, new(uint64))
	pb.Emit(0, 1, []byte{0xA})
	pb.Emit(1, 2, []byte{0xB})
	pb.Emit(0, 3, []byte{0xC})

	got := ringRecords(pb, 0)
	want := [][]byte{{0xA}, {0xC}}
	if len(got) != 2 {
		t.Fatalf("ring 0 drained %d records, want 2", len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Data, want[i]) {
			t.Fatalf("ring 0 record %d Data = %v, want %v", i, got[i].Data, want[i])
		}
	}
	if pb.Ring(1).Pending != 1 {
		t.Fatal("draining ring 0 touched CPU 1's ring")
	}
	if recs := ringRecords(pb, 7); recs != nil {
		t.Fatalf("drain of unmaterialized ring = %v", recs)
	}
	if recs := drainSorted(pb); len(recs) != 1 || recs[0].Data[0] != 0xB {
		t.Fatalf("final drain = %v", recs)
	}
}

// TestPerfBufferSharedSeqMergesAcrossBuffers checks buffers sharing one
// emission counter still produce a total order across per-CPU rings.
func TestPerfBufferSharedSeqMergesAcrossBuffers(t *testing.T) {
	var seq uint64
	a := NewPerfBuffer("a", 0, &seq)
	b := NewPerfBuffer("b", 0, &seq)
	a.Emit(1, 5, []byte{0})
	b.Emit(0, 5, []byte{1})
	a.Emit(0, 5, []byte{2})
	b.Emit(2, 6, []byte{3})

	var all []PerfRecord
	all = append(all, drainSorted(a)...)
	all = append(all, drainSorted(b)...)
	// Per-buffer drains are (Time, Seq) sorted; a two-way merge on Seq
	// must reproduce emission order 0,1,2,3.
	seen := make([]bool, 4)
	for _, rec := range all {
		seen[rec.Data[0]] = true
		if rec.Seq != uint64(rec.Data[0]) {
			t.Fatalf("record %d has Seq %d", rec.Data[0], rec.Seq)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("emission %d lost", i)
		}
	}
}

// TestPerfBufferDrainCursorInto checks cursor-based segment iteration:
// a cursor captures exactly the ring's current segment, iterates it in
// emission order, and leaves cumulative lost/byte accounting intact.
func TestPerfBufferDrainCursorInto(t *testing.T) {
	pb := NewPerfBuffer("cursor", 3, new(uint64))
	pb.Emit(1, 10, []byte{1})
	pb.Emit(1, 20, []byte{2})
	for i := 0; i < 4; i++ {
		pb.Emit(1, 30, []byte{9}) // one lands, three lost (capacity 3)
	}

	var cur RecordCursor
	pb.DrainCursorInto(&cur, 1)
	if cur.Len() != 3 {
		t.Fatalf("segment has %d records, want 3", cur.Len())
	}
	// The segment was swapped out when the cursor was made, before any
	// record was read: a consumer that stops early drops the remainder
	// (as a failed real poller would), it does not requeue it.
	if p := pb.Ring(1).Pending; p != 0 {
		t.Fatalf("drained ring still has %d records pending", p)
	}
	var times []int64
	for {
		rec, ok := cur.Next()
		if !ok {
			break
		}
		times = append(times, rec.Time)
	}
	if !reflect.DeepEqual(times, []int64{10, 20, 30}) {
		t.Fatalf("cursor order %v", times)
	}
	if cur.Len() != 0 {
		t.Fatalf("exhausted cursor reports Len %d", cur.Len())
	}
	// The drain defines a new segment; accounting is cumulative.
	if r := pb.Ring(1); r != (RingStats{0, 3, 3}) {
		t.Fatalf("post-cursor counters: %+v", r)
	}
	pb.Emit(1, 40, []byte{7})
	pb.DrainCursorInto(&cur, 1)
	if cur.Len() != 1 {
		t.Fatalf("next segment has %d records, want 1", cur.Len())
	}
	// Never-seen CPUs yield empty cursors.
	pb.DrainCursorInto(&cur, 17)
	if cur.Len() != 0 {
		t.Fatal("cursor over unseen CPU not empty")
	}
}

// TestPerfRingChunkReuseAfterRelease pins down the arena contract the
// zero-copy drain relies on: releasing a cursor hands its chunks back to
// the ring, the next emission burst reuses that exact memory, and any
// record Data retained across the Release therefore aliases the new
// burst's bytes. This is why a streaming sink must be done with every
// Data slice before the drain returns — and why retaining decoded
// values (interned names, scalar fields) is safe while retaining Data
// is not.
func TestPerfRingChunkReuseAfterRelease(t *testing.T) {
	pb := NewPerfBuffer("arena", 0, new(uint64))
	payload := func(burst, i int) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(burst)<<32|uint64(i))
		return b
	}
	const n = 64
	for i := 0; i < n; i++ {
		pb.Emit(0, int64(i), payload(1, i))
	}

	var c RecordCursor
	pb.DrainCursorInto(&c, 0)
	if len(c.chunks) == 0 {
		t.Fatal("drained cursor has no chunks")
	}
	arena := &c.chunks[0][0]
	var retained []byte
	for i := 0; i < n; i++ {
		rec, ok := c.Next()
		if !ok {
			t.Fatalf("cursor ended after %d of %d records", i, n)
		}
		if want := payload(1, i); !reflect.DeepEqual(rec.Data, want) {
			t.Fatalf("record %d data = %x, want %x", i, rec.Data, want)
		}
		if i == 0 {
			retained = rec.Data
		}
	}
	c.Release()

	for i := 0; i < n; i++ {
		pb.Emit(0, int64(1000+i), payload(2, i))
	}
	var c2 RecordCursor
	pb.DrainCursorInto(&c2, 0)
	defer c2.Release()
	if len(c2.chunks) == 0 {
		t.Fatal("second drain has no chunks")
	}
	if &c2.chunks[0][0] != arena {
		t.Fatal("second burst did not reuse the released arena chunk")
	}
	// The Data slice retained across Release now reads the second
	// burst's first record — reuse is observable, not hypothetical.
	if !reflect.DeepEqual(retained, payload(2, 0)) {
		t.Fatalf("retained Data after reuse = %x, want second burst's bytes %x", retained, payload(2, 0))
	}
	for i := 0; i < n; i++ {
		rec, ok := c2.Next()
		if !ok {
			t.Fatalf("second cursor ended after %d of %d records", i, n)
		}
		if want := payload(2, i); !reflect.DeepEqual(rec.Data, want) {
			t.Fatalf("second burst record %d data = %x, want %x", i, rec.Data, want)
		}
	}
}

// TestPerfRingDrainWhileNextBurstEmits drives the segment-swap isolation
// property under the race detector: DrainCursorInto swaps the segment
// out of the ring, so consuming the cursor's records may overlap with
// the next emission burst filling fresh chunks. The emitter touches only ring
// state (new chunks, counters); the consumer touches only cursor-local
// state; Release — which does touch the ring's free list — is ordered
// after the emitter finishes, matching the StreamTo cadence where
// release happens before the simulation resumes.
func TestPerfRingDrainWhileNextBurstEmits(t *testing.T) {
	pb := NewPerfBuffer("swap", 0, new(uint64))
	payload := func(burst, i int) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(burst)<<32|uint64(i))
		return b
	}
	const n = 512
	for i := 0; i < n; i++ {
		pb.Emit(0, int64(i), payload(1, i))
	}
	var c RecordCursor
	pb.DrainCursorInto(&c, 0)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			pb.Emit(0, int64(1000+i), payload(2, i))
		}
	}()
	for i := 0; i < n; i++ {
		rec, ok := c.Next()
		if !ok {
			t.Errorf("cursor ended after %d of %d records", i, n)
			break
		}
		if want := payload(1, i); !reflect.DeepEqual(rec.Data, want) {
			t.Errorf("record %d data = %x, want %x", i, rec.Data, want)
			break
		}
	}
	wg.Wait()
	c.Release()

	var c2 RecordCursor
	pb.DrainCursorInto(&c2, 0)
	defer c2.Release()
	if c2.Len() != n {
		t.Fatalf("concurrent burst drained %d records, want %d", c2.Len(), n)
	}
	for i := 0; i < n; i++ {
		rec, _ := c2.Next()
		if want := payload(2, i); !reflect.DeepEqual(rec.Data, want) {
			t.Fatalf("concurrent burst record %d data = %x, want %x", i, rec.Data, want)
		}
	}
}
