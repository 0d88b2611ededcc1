package ebpf

import (
	"encoding/binary"
	"fmt"
)

// Map is a BPF map reachable from programs by fd. All maps in this substrate
// carry 64-bit keys and values, which is sufficient for the tracers: they
// store PIDs, callback handles and user-space addresses.
type Map interface {
	Name() string
	Lookup(key uint64) (uint64, bool)
	Update(key, value uint64) error
	Delete(key uint64)
}

// HashMap is a BPF_MAP_TYPE_HASH equivalent with a capacity bound. It is
// an open-addressing table with linear probing and fibonacci hashing,
// purpose-built for the probe hot path: uint64 keys and values only, no
// interface boxing, and roughly a third of the per-op cost of a general
// Go map for the small integer keys the tracers use (PIDs, callback
// handles, user-space addresses).
type HashMap struct {
	name       string
	maxEntries int

	n     int // live entries
	tombs int // tombstones
	mask  uint64
	meta  []uint8 // slotEmpty, slotLive or slotTomb
	keys  []uint64
	vals  []uint64
}

const (
	slotEmpty uint8 = iota
	slotLive
	slotTomb
)

const hashMapMinSlots = 16

// NewHashMap creates a hash map holding at most maxEntries entries.
func NewHashMap(name string, maxEntries int) *HashMap {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	h := &HashMap{name: name, maxEntries: maxEntries}
	h.rehash(hashMapMinSlots)
	return h
}

// hashKey is fibonacci (multiplicative) hashing; the high bits are well
// mixed, and the mask keeps slot counts a power of two.
func hashKey(k uint64) uint64 {
	return (k * 0x9e3779b97f4a7c15) >> 17
}

func (h *HashMap) rehash(slots int) {
	oldMeta, oldKeys, oldVals := h.meta, h.keys, h.vals
	h.meta = make([]uint8, slots)
	h.keys = make([]uint64, slots)
	h.vals = make([]uint64, slots)
	h.mask = uint64(slots - 1)
	h.tombs = 0
	for i, m := range oldMeta {
		if m != slotLive {
			continue
		}
		idx := hashKey(oldKeys[i]) & h.mask
		for h.meta[idx] == slotLive {
			idx = (idx + 1) & h.mask
		}
		h.meta[idx] = slotLive
		h.keys[idx] = oldKeys[i]
		h.vals[idx] = oldVals[i]
	}
}

// Name implements Map.
func (h *HashMap) Name() string { return h.name }

// Lookup implements Map. The probe loop masks indexes against the local
// slice length instead of loading h.mask, so the compiler proves every
// access in bounds and the per-probe bounds checks disappear — this is
// the hottest map path on a probe fire, consulted up to three times per
// dispatched program.
func (h *HashMap) Lookup(key uint64) (uint64, bool) {
	meta := h.meta
	if len(meta) == 0 {
		return 0, false
	}
	mask := uint64(len(meta) - 1)
	keys := h.keys[:len(meta)]
	vals := h.vals[:len(meta)]
	idx := hashKey(key)
	for {
		i := idx & mask
		switch meta[i] {
		case slotEmpty:
			return 0, false
		case slotLive:
			if keys[i] == key {
				return vals[i], true
			}
		}
		idx = i + 1
	}
}

// Update implements Map. Inserting beyond capacity fails like the kernel's
// E2BIG.
func (h *HashMap) Update(key, value uint64) error {
	meta := h.meta
	if len(meta) == 0 {
		return fmt.Errorf("ebpf: map %q has no slots", h.name)
	}
	mask := uint64(len(meta) - 1)
	keys := h.keys[:len(meta)]
	vals := h.vals[:len(meta)]
	idx := hashKey(key)
	insert := -1
	for {
		i := idx & mask
		switch meta[i] {
		case slotEmpty:
			if h.n >= h.maxEntries {
				return fmt.Errorf("ebpf: map %q full (%d entries)", h.name, h.maxEntries)
			}
			if insert < 0 {
				insert = int(i)
			} else {
				h.tombs--
			}
			ii := uint64(insert) & mask
			meta[ii] = slotLive
			keys[ii] = key
			vals[ii] = value
			h.n++
			// Keep the live+tombstone load factor below 3/4.
			if slots := len(meta); (h.n+h.tombs)*4 > slots*3 {
				next := slots
				if h.n*4 > slots*3 {
					next = slots * 2
				}
				h.rehash(next)
			}
			return nil
		case slotLive:
			if keys[i] == key {
				vals[i] = value
				return nil
			}
		case slotTomb:
			if insert < 0 {
				insert = int(i)
			}
		}
		idx = i + 1
	}
}

// Delete implements Map.
func (h *HashMap) Delete(key uint64) {
	meta := h.meta
	if len(meta) == 0 {
		return
	}
	mask := uint64(len(meta) - 1)
	keys := h.keys[:len(meta)]
	idx := hashKey(key)
	for {
		i := idx & mask
		switch meta[i] {
		case slotEmpty:
			return
		case slotLive:
			if keys[i] == key {
				meta[i] = slotTomb
				h.n--
				h.tombs++
				return
			}
		}
		idx = i + 1
	}
}

// PerfRecord is one record emitted through perf_event_output. Data
// points into the ring's arena: records decoded through a RecordCursor
// alias chunks that return to the ring when the cursor is released, so
// a consumer must finish with Data before Release.
type PerfRecord struct {
	CPU  int
	Time int64  // virtual ns at emission
	Seq  uint64 // global emission order (see SharedSeq)
	Data []byte
}

// perfRing is one per-CPU ring of a PerfBuffer, matching the per-CPU
// mmap'd pages of a real BPF_MAP_TYPE_PERF_EVENT_ARRAY. Records are
// framed directly into large arena chunks — [time u64][seq u64][len
// u32][payload], never split across a chunk boundary — the way a real
// ring writes perf_event_header + raw sample into its mmap'd pages, so
// emit allocates nothing on the steady state and a drain hands the
// chunks themselves to the consumer instead of materializing a record
// slice. The consumer decodes records in place out of the chunks and
// releases them back to the ring's free list when its sink is done.
//
// Exactly one simulated CPU produces into a ring, and a drain consumes
// it by swapping the chunk list out, so neither path ever takes a lock.
// Like the Runtime that owns it, a PerfBuffer belongs to one
// single-threaded simulation: the no-lock design relies on that
// ownership (the ring set grows on first emission from a new CPU and
// the emission counter is plain), not on any cross-goroutine
// synchronization.
type perfRing struct {
	count int // undrained records in the current segment
	lost  uint64
	bytes uint64
	// chunks hold the current segment's framed records; the last chunk is
	// the one being filled.
	chunks [][]byte
	// free recycles chunks handed back by released streaming cursors, so
	// a steady-state drain loop reuses the same arena memory forever.
	free [][]byte
}

// perfRecHdr is the per-record frame header: time, seq, payload length.
const perfRecHdr = 8 + 8 + 4

// perfFreeChunks bounds a ring's free list; chunks beyond it fall to
// the garbage collector (only reachable after a burst far above the
// steady-state segment size).
const perfFreeChunks = 8

// newChunk returns an empty chunk with room for at least need bytes,
// recycling a released one when possible.
func (r *perfRing) newChunk(need int) []byte {
	if n := len(r.free); n > 0 {
		c := r.free[n-1]
		r.free = r.free[:n-1]
		if cap(c) >= need {
			return c[:0]
		}
	}
	size := perfArenaChunk
	if need > size {
		size = need
	}
	return make([]byte, 0, size)
}

// drainSegment swaps the ring's current segment out: the chunk list and
// its record count. The caller owns the chunks until it releases them.
func (r *perfRing) drainSegment() ([][]byte, int) {
	chunks, n := r.chunks, r.count
	r.chunks, r.count = nil, 0
	return chunks, n
}

// PerfBuffer is a BPF_MAP_TYPE_PERF_EVENT_ARRAY equivalent: one ring per
// CPU, allocated on first emission from that CPU. Programs write records
// to the ring of the CPU they fire on; the user-space tracer drains one
// ring at a time (DrainCursorInto) and merges the rings by (Time, Seq)
// downstream (trace.MergeStream). A per-ring capacity
// bound models real ring-buffer overruns: records beyond it are counted
// as lost against the overrunning CPU.
type PerfBuffer struct {
	name     string
	capacity int     // per-ring record bound; 0 means unbounded
	seq      *uint64 // emission counter; shared across buffers or owned
	rings    []perfRing

	// emitFault, when set, is consulted on every emission: returning true
	// drops the record, counted lost against the emitting CPU's ring
	// exactly like a capacity overrun. It exists for deterministic fault
	// injection (forced lost records, overflow bursts) and is nil in
	// production, where Emit pays one nil check for it.
	emitFault func(cpu int) bool
}

// perfArenaChunk is the allocation granule for record payloads.
const perfArenaChunk = 64 << 10

// NewPerfBuffer creates a perf buffer whose rings each hold at most
// capacity undrained records (0 means unbounded). Records are stamped
// from the emission counter seq, which buffers may share: merging the
// rings of every buffer on one counter by (Time, Seq) then reproduces
// emission order even when virtual time stands still, the global order
// the trace merger relies on. A nil seq panics: every record needs a Seq
// for that merge.
func NewPerfBuffer(name string, capacity int, seq *uint64) *PerfBuffer {
	if seq == nil {
		panic("ebpf: perf buffer " + name + " has no emission counter")
	}
	return &PerfBuffer{name: name, capacity: capacity, seq: seq}
}

// Name implements Map.
func (p *PerfBuffer) Name() string { return p.name }

// Lookup implements Map; perf buffers are not lookupable from programs.
func (p *PerfBuffer) Lookup(uint64) (uint64, bool) { return 0, false }

// Update implements Map; direct updates are invalid.
func (p *PerfBuffer) Update(uint64, uint64) error {
	return fmt.Errorf("ebpf: perf buffer %q does not support update", p.name)
}

// Delete implements Map; no-op.
func (p *PerfBuffer) Delete(uint64) {}

// ring returns the ring for cpu, growing the ring set on first emission
// from a new CPU. Negative CPUs (unpinned contexts) land on CPU 0.
func (p *PerfBuffer) ring(cpu int) (*perfRing, int) {
	if cpu < 0 {
		cpu = 0
	}
	if cpu >= len(p.rings) {
		rings := make([]perfRing, cpu+1)
		copy(rings, p.rings)
		p.rings = rings
	}
	return &p.rings[cpu], cpu
}

// SetEmitFault installs (or, with nil, removes) the per-emission fault
// hook. Drops it forces are indistinguishable from capacity overruns:
// counted in the emitting ring's Ring(cpu).Lost.
func (p *PerfBuffer) SetEmitFault(hook func(cpu int) bool) { p.emitFault = hook }

// Emit frames a record into the ring of the firing CPU (called by the
// perf_event_output helper with ctx.CPU).
func (p *PerfBuffer) Emit(cpu int, now int64, data []byte) {
	r, cpu := p.ring(cpu)
	if p.emitFault != nil && p.emitFault(cpu) {
		r.lost++
		return
	}
	if p.capacity > 0 && r.count >= p.capacity {
		r.lost++
		return
	}
	need := perfRecHdr + len(data)
	var cur []byte
	if n := len(r.chunks); n > 0 {
		cur = r.chunks[n-1]
	}
	if cap(cur)-len(cur) < need {
		cur = r.newChunk(need)
		r.chunks = append(r.chunks, cur)
	}
	off := len(cur)
	cur = cur[:off+need]
	binary.LittleEndian.PutUint64(cur[off:], uint64(now))
	binary.LittleEndian.PutUint64(cur[off+8:], *p.seq)
	*p.seq++
	binary.LittleEndian.PutUint32(cur[off+16:], uint32(len(data)))
	copy(cur[off+perfRecHdr:], data)
	r.chunks[len(r.chunks)-1] = cur
	r.count++
	r.bytes += uint64(len(data))
}

// RecordCursor iterates one drained ring segment, decoding each record's
// frame in place: the yielded PerfRecord's Data aliases the segment's
// arena chunk, so the drain performs no per-record copy or allocation.
// The segment was swapped out of the ring when the cursor was created,
// so iteration never races with new emissions and its length bounds what
// a consumer can ever have in flight from this ring. Release hands the
// chunks back to the ring once the consumer is done with every Data it
// yielded.
type RecordCursor struct {
	ring   *perfRing // for Release; nil for an empty cursor
	cpu    int
	chunks [][]byte
	n      int // records remaining
	ci     int // current chunk index
	off    int // decode offset into the current chunk
}

// Next decodes the next record of the segment; ok is false at the end.
func (c *RecordCursor) Next() (rec PerfRecord, ok bool) {
	if c.n == 0 {
		return PerfRecord{}, false
	}
	for c.off >= len(c.chunks[c.ci]) {
		c.ci++
		c.off = 0
	}
	b := c.chunks[c.ci]
	ln := int(binary.LittleEndian.Uint32(b[c.off+16:]))
	end := c.off + perfRecHdr + ln
	rec = PerfRecord{
		CPU:  c.cpu,
		Time: int64(binary.LittleEndian.Uint64(b[c.off:])),
		Seq:  binary.LittleEndian.Uint64(b[c.off+8:]),
		Data: b[c.off+perfRecHdr : end : end],
	}
	c.off = end
	c.n--
	return rec, true
}

// Len reports how many records remain.
func (c *RecordCursor) Len() int { return c.n }

// Release returns the segment's arena chunks to the ring's free list for
// the next emission burst to reuse. After Release, Data slices of
// records this cursor yielded may be overwritten; the sink must be done
// with them (events decode into value fields and interned strings, never
// retaining Data — see tracers.DecodeRecord). Safe to call more than
// once and on empty cursors.
func (c *RecordCursor) Release() {
	r := c.ring
	if r == nil {
		return
	}
	c.ring = nil
	for _, ch := range c.chunks {
		if len(r.free) < perfFreeChunks {
			r.free = append(r.free, ch[:0])
		}
	}
	// Hand the chunk-list array itself back too, if the ring has not
	// started a new segment yet (the common drain-then-emit cadence).
	if r.chunks == nil && cap(c.chunks) > 0 {
		r.chunks = c.chunks[:0]
	}
	c.chunks = nil
}

// DrainCursorInto drains one CPU's ring — the records emitted since the
// previous drain, its current segment — into a caller-owned cursor, so a
// drain loop reuses its cursors across segments without allocating.
// CPUs the buffer never saw drain empty. The ring's lost/byte counters
// are untouched: they accumulate for the lifetime of the buffer
// regardless of how records are consumed.
func (p *PerfBuffer) DrainCursorInto(c *RecordCursor, cpu int) {
	if cpu < 0 || cpu >= len(p.rings) {
		*c = RecordCursor{}
		return
	}
	r := &p.rings[cpu]
	chunks, n := r.drainSegment()
	*c = RecordCursor{ring: r, cpu: cpu, chunks: chunks, n: n}
}

// Capacity reports the per-ring record bound (0 means unbounded).
func (p *PerfBuffer) Capacity() int { return p.capacity }

// NumRings reports how many per-CPU rings the buffer has materialized
// (the highest emitting CPU index + 1).
func (p *PerfBuffer) NumRings() int { return len(p.rings) }

// RingStats is one per-CPU ring's accounting.
type RingStats struct {
	Pending int    // records emitted but not yet drained
	Lost    uint64 // records dropped to the capacity bound or an emit fault
	Bytes   uint64 // cumulative payload bytes emitted, drained or not
}

// Ring reports cpu's ring accounting; a CPU the buffer never saw reads
// zero. Lost and Bytes accumulate for the lifetime of the buffer.
func (p *PerfBuffer) Ring(cpu int) RingStats {
	if cpu < 0 || cpu >= len(p.rings) {
		return RingStats{}
	}
	r := &p.rings[cpu]
	return RingStats{Pending: r.count, Lost: r.lost, Bytes: r.bytes}
}
