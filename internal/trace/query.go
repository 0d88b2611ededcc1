package trace

import (
	"encoding/binary"
	"os"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Filtered session reads. StreamSession decodes every record of every
// segment; QuerySession uses the v2 footer indexes to decode only the
// blocks that can match a filter — a narrow time window over a long
// session touches a handful of blocks per segment instead of the whole
// store. Both open segments through SessionCursors and decode through
// FileCursor, which applies the filter and reads the selected blocks.
// v1 segments and footerless v2 segments degrade to one sequential scan
// with the same filter applied record-by-record, so results are
// format-independent.

// Filter selects a subset of a session's events. The zero value matches
// everything.
type Filter struct {
	// T0 and T1 bound Event.Time inclusively; 0 leaves that side
	// unbounded (trace times are positive; a store has no events at time
	// 0).
	T0, T1 sim.Time
	// Kinds restricts to the listed event kinds; empty means all.
	Kinds []Kind
	// Node restricts to events attributed to one node; "" means all.
	Node string
}

// compiledFilter is Filter lowered for the per-record hot path: kinds as
// a bitmap, bounds normalized.
type compiledFilter struct {
	t0, t1 sim.Time // the extreme times when unbounded
	kinds  uint32   // 0 means all kinds
	node   string
}

const maxSimTime = sim.Time(1<<63 - 1)

func compileFilter(f Filter) compiledFilter {
	cf := compiledFilter{t0: f.T0, t1: f.T1, node: f.Node}
	if cf.t0 == 0 {
		cf.t0 = -maxSimTime - 1
	}
	if cf.t1 == 0 {
		cf.t1 = maxSimTime
	}
	for _, k := range f.Kinds {
		cf.kinds |= kindBit(k)
	}
	return cf
}

func (cf *compiledFilter) match(e *Event) bool {
	if e.Time < cf.t0 || e.Time > cf.t1 {
		return false
	}
	if cf.kinds != 0 && cf.kinds&kindBit(e.Kind) == 0 {
		return false
	}
	if cf.node != "" && e.Node != cf.node {
		return false
	}
	return true
}

// blockOverlaps decides from the index alone whether a block can hold a
// matching record.
func (cf *compiledFilter) blockOverlaps(bi *BlockInfo) bool {
	if bi.MaxTime < cf.t0 || bi.MinTime > cf.t1 {
		return false
	}
	if cf.kinds != 0 && cf.kinds&bi.Kinds == 0 {
		return false
	}
	return true
}

// QueryStats reports how much work a QuerySession did — the observable
// proof that an indexed read skipped what the filter excluded.
type QueryStats struct {
	Segments       int // segment files opened
	Scans          int // segments read sequentially (v1 or footerless v2)
	BlocksTotal    int // v2 blocks listed by the footer indexes
	BlocksRead     int // v2 blocks whose records were decoded
	BlocksSkipped  int // v2 blocks excluded without decoding records
	RecordsDecoded int // records decoded
	RecordsMatched int // records that passed the filter into the sink
}

// QuerySession streams the events of a session matching f into sink in
// (Time, Seq) order — StreamSession with a filter pushed down into the
// storage layer. It opens the segments through SessionCursors and
// merges their FileCursors. For a v2 segment with a footer, the index
// selects only blocks overlapping the time window whose kind bitmap
// intersects the filter (and, for node filters, whose string table
// mentions the node), read with positioned reads; a segment with no
// selected block is not read at all. Every other segment — v1 or a
// footerless v2 segment (a crashed writer) — is scanned once with the
// filter applied record by record, and so is a segment whose footer
// fails validation. Damage fails the query
// exactly as it fails StreamSession, records out of (Time, Seq) order
// included, as far as the query decodes: a selected frame that
// disagrees with its index entry sends its cursor on sequentially, and
// an entry that disagrees with its decoded block fails at the segment's
// end, as the footer check does; a v2 block the index skips is not read,
// so damage inside it goes unseen. The empty filter skips nothing, so it
// fails with StreamSession's damage class (FuzzQueryMatchesStream pins
// this). Use SalvageSession for degraded reads.
func (s *Store) QuerySession(session string, f Filter, sink Sink) (QueryStats, error) {
	var qs QueryStats
	curs, err := s.SessionCursors(session)
	if err != nil {
		return qs, err
	}
	defer closeCursors(curs)
	cf := compileFilter(f)
	cursors := make([]Cursor, 0, len(curs))
	for _, fc := range curs {
		qs.Segments++
		fc.filter = &cf
		blocks, indexed := readIndex(fc.file)
		if !indexed {
			qs.Scans++
			cursors = append(cursors, fc)
			continue
		}
		qs.BlocksTotal += len(blocks)
		sel := blocks[:0]
		for _, bi := range blocks {
			if cf.blockOverlaps(&bi) {
				sel = append(sel, bi)
			}
		}
		qs.BlocksSkipped += len(blocks) - len(sel)
		if len(sel) > 0 {
			fc.readSelected(sel)
			cursors = append(cursors, fc)
		}
	}
	err = NewMergeStream(cursors...).Run(sink)
	for _, fc := range curs {
		qs.RecordsDecoded += fc.decoded
		qs.RecordsMatched += fc.matched
		qs.BlocksRead += fc.selAt - fc.stepped
		qs.BlocksSkipped += fc.stepped
	}
	return qs, err
}

// readIndex reads a v2 segment's footer index with positioned reads: the
// magic, then the footer through the fixed-size EOF trailer. ok is false
// when there is no index to trust — not a v2 segment, no footer written
// (a crashed writer), or a footer that fails validation — and the
// segment is then scanned, its cursor failing on damage exactly as
// StreamSession does.
func readIndex(file *os.File) (blocks []BlockInfo, ok bool) {
	var magic [len(binMagic2)]byte
	if _, err := file.ReadAt(magic[:], 0); err != nil || string(magic[:]) != binMagic2 {
		return nil, false
	}
	fi, err := file.Stat()
	if err != nil || fi.Size() < int64(len(binMagic2)+5+footerTrailerLen) {
		return nil, false
	}
	end := fi.Size() - int64(footerTrailerLen)
	var tr [footerTrailerLen]byte
	if _, err := file.ReadAt(tr[:], end); err != nil || string(tr[4:]) != footerTrailerMagic {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(tr[:4])
	frameOff := end - int64(n) - 5
	if n > maxFooterBody || frameOff < int64(len(binMagic2)) {
		return nil, false
	}
	buf := make([]byte, 5+int(n))
	if _, err := file.ReadAt(buf, frameOff); err != nil || buf[0] != frameFooter || binary.LittleEndian.Uint32(buf[1:5]) != n {
		return nil, false
	}
	blocks, records, err := parseFooterBody(buf[5:])
	if err != nil {
		return nil, false
	}
	// Offsets must stay inside the data region for positioned reads, and
	// the counts must add up to the footer's total.
	for _, bi := range blocks {
		if bi.Offset+5+int64(bi.Len) > frameOff {
			return nil, false
		}
		records -= bi.Count
	}
	return blocks, records == 0
}
