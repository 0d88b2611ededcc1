// Package faultinject provides deterministic, scriptable fault injection
// for the drain → store → synthesis pipeline: io.Writer wrappers that
// fail, tear, or corrupt byte streams at scripted points;
// ring faults that force lost records and overflow bursts on the per-CPU
// perf rings; and DDS transport faults (drop / duplicate / extra delay)
// drawn from the simulation's seeded RNG.
//
// Everything here is deterministic per seed and script: the same plan
// over the same workload produces the same fault schedule, which is what
// lets the chaos harness assert exact accounting (emitted == persisted +
// ring-lost + spill-dropped) instead of "roughly survived".
//
// All injection points in the production code are nil-checked hooks
// (trace.Store.WrapWriter, ebpf.PerfBuffer.SetEmitFault,
// dds.Domain.Fault): when no plan is installed the hot paths pay at most
// one nil check and allocate nothing. There is no read-side hook: the
// salvage, fsck, fuzz and chaos tests damage segment bytes on disk.
package faultinject

import (
	"errors"
	"io"

	"github.com/tracesynth/rostracer/internal/sim"
)

// ErrDiskFull models ENOSPC — the canonical persistent write failure.
var ErrDiskFull = errors.New("faultinject: disk full")

// WriteFaultKind selects the failure mode of one Writer wrapper.
type WriteFaultKind int

const (
	// WriteHealthy passes everything through.
	WriteHealthy WriteFaultKind = iota
	// WriteFailAfter accepts N bytes, then fails every write with
	// ErrDiskFull (the write that crosses the boundary is short: it
	// reports the bytes that fit, with the error — ENOSPC semantics).
	WriteFailAfter
	// WriteShortAt makes the Nth Write call (1-based) write only half its
	// buffer and return io.ErrShortWrite; later writes pass through.
	WriteShortAt
	// WriteFailAll fails every write with ErrDiskFull: a disk that is
	// down from the first byte (open-failure equivalent).
	WriteFailAll
	// WriteFlipBit silently flips the lowest bit of the byte at stream
	// offset N: media corruption the writer never notices.
	WriteFlipBit
	// WriteTruncateAt silently discards every byte at stream offset >= N
	// while reporting success: a torn write that only a later read
	// discovers.
	WriteTruncateAt
)

// WriteFault is one scripted fault; N is the byte offset or op count its
// kind calls for.
type WriteFault struct {
	Kind WriteFaultKind
	N    int64
}

func (f WriteFault) String() string {
	switch f.Kind {
	case WriteHealthy:
		return "healthy"
	case WriteFailAfter:
		return "disk-full-after"
	case WriteShortAt:
		return "short-write"
	case WriteFailAll:
		return "disk-down"
	case WriteFlipBit:
		return "bit-flip"
	case WriteTruncateAt:
		return "torn-tail"
	}
	return "?"
}

// Writer wraps an io.Writer with scripted faults. Offsets are logical
// stream offsets (bytes the caller believes written), so silent faults
// keep claiming success while damaging what lands underneath.
type Writer struct {
	w      io.Writer
	faults []WriteFault
	off    int64 // logical bytes accepted so far
	ops    int   // Write calls seen
}

// NewWriter wraps w; faults apply simultaneously (e.g. a bit flip plus a
// torn tail).
func NewWriter(w io.Writer, faults ...WriteFault) *Writer {
	return &Writer{w: w, faults: faults}
}

// Write implements io.Writer under the scripted faults.
func (w *Writer) Write(p []byte) (int, error) {
	w.ops++
	// Hard failures first: they decide how much of p is accepted at all.
	limit := len(p)
	var hardErr error
	for _, f := range w.faults {
		switch f.Kind {
		case WriteFailAll:
			return 0, ErrDiskFull
		case WriteFailAfter:
			if w.off >= f.N {
				return 0, ErrDiskFull
			}
			if room := f.N - w.off; int64(limit) > room {
				limit = int(room)
				hardErr = ErrDiskFull
			}
		case WriteShortAt:
			if int64(w.ops) == f.N && limit > 0 {
				if half := limit / 2; half < limit {
					limit = half
					hardErr = io.ErrShortWrite
				}
			}
		}
	}
	chunk := p[:limit]
	// Silent faults damage what actually lands without changing the
	// claimed outcome.
	out := chunk
	for _, f := range w.faults {
		switch f.Kind {
		case WriteFlipBit:
			if f.N >= w.off && f.N < w.off+int64(len(out)) {
				dup := append([]byte(nil), out...)
				dup[f.N-w.off] ^= 1
				out = dup
			}
		case WriteTruncateAt:
			if w.off >= f.N {
				out = nil
			} else if keep := f.N - w.off; int64(len(out)) > keep {
				out = out[:keep]
			}
		}
	}
	if len(out) > 0 {
		if n, err := w.w.Write(out); err != nil {
			w.off += int64(n)
			return n, err
		}
	}
	w.off += int64(limit)
	if hardErr != nil {
		return limit, hardErr
	}
	return limit, nil
}

// Disk scripts the write-side behaviour of successive files: the k-th
// file opened through Wrap gets the k-th fault set of the script (beyond
// the script every file is healthy). Rotation retries open fresh files,
// so "disk down for n opens" is n consecutive {WriteFailAll} entries.
type Disk struct {
	script [][]WriteFault
	opens  int
}

// NewDisk builds a per-open script; each entry is the fault set for one
// opened file.
func NewDisk(script ...[]WriteFault) *Disk {
	return &Disk{script: script}
}

// Opens reports how many files have been wrapped.
func (d *Disk) Opens() int { return d.opens }

// Wrap implements the trace.Store.WrapWriter hook shape.
func (d *Disk) Wrap(name string, f io.Writer) io.Writer {
	var faults []WriteFault
	if d.opens < len(d.script) {
		faults = d.script[d.opens]
	}
	d.opens++
	if len(faults) == 0 {
		return f
	}
	return NewWriter(f, faults...)
}

// Burst is one scripted overflow burst: drop Len consecutive emissions
// starting at the AtOp-th emission attempt (1-based).
type Burst struct {
	AtOp uint64
	Len  uint64
}

// RingFault drops perf-ring emissions per a seeded schedule: independent
// drops with probability DropProb plus scripted bursts. Drops count as
// lost on the emitting ring (the hook contract of
// ebpf.PerfBuffer.SetEmitFault), so the pipeline's existing lost-record
// accounting absorbs injected faults without a parallel ledger.
type RingFault struct {
	rng      *sim.RNG
	dropProb float64
	bursts   []Burst
	ops      uint64
	drops    uint64
}

// NewRingFault builds a ring fault plan. seed makes the probabilistic
// drops reproducible; bursts fire by emission attempt index.
func NewRingFault(seed uint64, dropProb float64, bursts ...Burst) *RingFault {
	return &RingFault{rng: sim.NewRNG(seed), dropProb: dropProb, bursts: bursts}
}

// Hook returns the function to install with SetEmitFault.
func (f *RingFault) Hook() func(cpu int) bool {
	return func(cpu int) bool {
		f.ops++
		drop := false
		for _, b := range f.bursts {
			if f.ops >= b.AtOp && f.ops < b.AtOp+b.Len {
				drop = true
			}
		}
		if !drop && f.dropProb > 0 && f.rng.Float64() < f.dropProb {
			drop = true
		}
		if drop {
			f.drops++
		}
		return drop
	}
}

// Drops reports how many emission attempts were forced lost.
func (f *RingFault) Drops() uint64 { return f.drops }

// Transport implements the dds.TransportFault interface (structurally:
// it has the Fate method) with independent per-delivery probabilities —
// the lossy/jittery network of a distributed domain. All randomness
// comes from the RNG the domain passes in, so fault schedules are fixed
// by the world seed.
type Transport struct {
	DropProb   float64      // P(delivery suppressed)
	DupProb    float64      // P(one extra duplicate copy)
	DelayProb  float64      // P(extra latency added)
	ExtraDelay sim.Duration // the extra latency when delayed
}

// Fate decides one delivery; see dds.TransportFault.
func (t *Transport) Fate(rng *sim.RNG) (drop bool, dups int, extra sim.Duration) {
	if t.DropProb > 0 && rng.Float64() < t.DropProb {
		return true, 0, 0
	}
	if t.DupProb > 0 && rng.Float64() < t.DupProb {
		dups = 1
	}
	if t.DelayProb > 0 && rng.Float64() < t.DelayProb {
		extra = t.ExtraDelay
	}
	return false, dups, extra
}

// Plan bundles one deterministic fault scenario across the three layers
// a deployment can lose data in: the disk under the store, the perf
// rings under the drain, and the DDS transport under the application.
// Nil members leave that layer healthy. The caller wires each member to
// its hook (Store.WrapWriter, Bundle.SetRingFault, Domain.Fault).
type Plan struct {
	Disk      *Disk
	Ring      *RingFault
	Transport *Transport
}
