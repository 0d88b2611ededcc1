package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Filtered session reads. StreamSession decodes every record of every
// segment; QuerySession uses the v2 footer indexes to decode only the
// blocks that can match a filter — a narrow time window over a long
// session touches a handful of blocks per segment instead of the whole
// store. v1 segments (and stores opened with a WrapReader, which cannot
// seek) degrade to a sequential scan with the same filter applied
// record-by-record, so results are format-independent.

// Filter selects a subset of a session's events. The zero value matches
// everything.
type Filter struct {
	// T0 and T1 bound Event.Time inclusively. T1 == 0 means unbounded
	// above (trace times are positive; a store has no events at time 0).
	T0, T1 sim.Time
	// Kinds restricts to the listed event kinds; empty means all.
	Kinds []Kind
	// Node restricts to events attributed to one node; "" means all.
	Node string
}

// compiledFilter is Filter lowered for the per-record hot path: kinds as
// a bitmap, bounds normalized.
type compiledFilter struct {
	t0, t1 sim.Time // t1 == maxTime when unbounded
	kinds  uint32   // 0 means all kinds
	node   string
}

const maxSimTime = sim.Time(1<<63 - 1)

func compileFilter(f Filter) compiledFilter {
	cf := compiledFilter{t0: f.T0, t1: f.T1, node: f.Node}
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
	Scans          int // segments read sequentially (v1, or WrapReader set)
	BlocksTotal    int // v2 blocks listed by the indexes
	BlocksRead     int // v2 blocks whose records were decoded
	BlocksSkipped  int // v2 blocks excluded without decoding records
	FootersRebuilt int // v2 segments whose missing footer was rebuilt by scan
	RecordsDecoded int // records decoded (indexed path only)
	RecordsMatched int // records that passed the filter into the sink
}

// QuerySession streams the events of a session matching f into sink in
// (Time, Seq) order — StreamSession with a filter pushed down into the
// storage layer. For v2 segments the footer index selects only blocks
// overlapping the time window whose kind bitmap intersects the filter
// (and, for node filters, whose string table mentions the node), reading
// them with positioned reads; a segment whose footer is missing — a
// crashed writer — gets its index rebuilt by one sequential scan. v1
// segments and fault-injected stores (WrapReader set: the wrapped reader
// cannot seek) fall back to a full sequential scan with the same filter.
// Damage fails the query exactly as it fails StreamSession, records out
// of (Time, Seq) order included, as far as the query decodes: a v2 block
// the index skips is not read, so damage inside it goes unseen. Use
// SalvageSession for degraded reads.
func (s *Store) QuerySession(session string, f Filter, sink Sink) (QueryStats, error) {
	var qs QueryStats
	cf := compileFilter(f)
	names, err := s.segmentNames(session)
	if err != nil {
		return qs, err
	}
	if len(names) == 0 {
		return qs, fmt.Errorf("trace: session %q has no segments", session)
	}
	var cursors []Cursor
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		qs.Segments++
		if s.WrapReader != nil {
			file, err := os.Open(path)
			if err != nil {
				return qs, err
			}
			fc := NewFileCursor(s.WrapReader(name, file))
			fc.c = file
			fc.name = name
			fc.strict = true
			closers = append(closers, fc)
			cursors = append(cursors, &filterCursor{c: fc, f: &cf, qs: &qs})
			qs.Scans++
			continue
		}
		file, err := os.Open(path)
		if err != nil {
			return qs, err
		}
		var magic [len(binMagic)]byte
		if _, err := file.ReadAt(magic[:], 0); err != nil {
			file.Close()
			return qs, fmt.Errorf("trace: segment %s: %w: reading magic: %w", name, ErrTruncated, err)
		}
		switch string(magic[:]) {
		case binMagic:
			// v1 has no index; filter over the sequential strict cursor.
			if _, err := file.Seek(0, io.SeekStart); err != nil {
				file.Close()
				return qs, err
			}
			fc := NewFileCursor(file)
			fc.c = file
			fc.name = name
			fc.strict = true
			closers = append(closers, fc)
			cursors = append(cursors, &filterCursor{c: fc, f: &cf, qs: &qs})
			qs.Scans++
		case binMagic2:
			blocks, err := s.segmentBlockIndex(file, name, &qs)
			if err != nil {
				file.Close()
				return qs, err
			}
			qs.BlocksTotal += len(blocks)
			sel := blocks[:0:0]
			for i := range blocks {
				if cf.blockOverlaps(&blocks[i]) {
					sel = append(sel, blocks[i])
				}
			}
			qs.BlocksSkipped += len(blocks) - len(sel)
			closers = append(closers, file)
			cursors = append(cursors, &indexedCursor{f: file, name: name, blocks: sel, filter: &cf, qs: &qs})
		default:
			file.Close()
			return qs, fmt.Errorf("trace: segment %s: %w: %q", name, ErrBadMagic, magic)
		}
	}
	if err := NewMergeStream(cursors...).Run(sink); err != nil {
		return qs, err
	}
	return qs, nil
}

// segmentBlockIndex loads a v2 segment's footer index via the EOF
// trailer, or rebuilds it with one sequential scan when the footer is
// missing (crashed writer: the segment ends cleanly at a block boundary
// with no footer frame). Any other damage fails the query.
func (s *Store) segmentBlockIndex(file *os.File, name string, qs *QueryStats) ([]BlockInfo, error) {
	fi, err := file.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	blocks, ok, err := readFooterAt(file, size)
	if err != nil {
		return nil, fmt.Errorf("trace: segment %s (%s): %w", name, FormatV2, err)
	}
	if ok {
		return blocks, nil
	}
	// No trailer at EOF. Scan: a clean footer-less segment yields its
	// observed index; anything else (torn block, damage) errors here,
	// exactly as StreamSession would.
	fc := NewFileCursor(io.NewSectionReader(file, 0, size))
	fc.name = name
	fc.strict = true
	for {
		if _, ok, err := fc.Next(); err != nil {
			return nil, err
		} else if !ok {
			break
		}
	}
	qs.FootersRebuilt++
	return fc.BlockIndex(), nil
}

// readFooterAt reads and validates the footer index through the
// fixed-size EOF trailer. ok is false when there is no trailer at all
// (no footer was ever written); an error means a footer-shaped tail that
// fails validation.
func readFooterAt(file *os.File, size int64) (blocks []BlockInfo, ok bool, err error) {
	if size < int64(len(binMagic2)+5+footerTrailerLen) {
		return nil, false, nil
	}
	var tr [footerTrailerLen]byte
	if _, err := file.ReadAt(tr[:], size-int64(footerTrailerLen)); err != nil {
		return nil, false, err
	}
	if string(tr[4:]) != footerTrailerMagic {
		return nil, false, nil
	}
	n := binary.LittleEndian.Uint32(tr[:4])
	if n > maxFooterBody {
		return nil, false, fmt.Errorf("%w: implausible footer length %d", ErrBadFooter, n)
	}
	frameOff := size - int64(footerTrailerLen) - int64(n) - 5
	if frameOff < int64(len(binMagic2)) {
		return nil, false, fmt.Errorf("%w: footer overruns segment", ErrBadFooter)
	}
	buf := make([]byte, 5+int(n))
	if _, err := file.ReadAt(buf, frameOff); err != nil {
		return nil, false, err
	}
	if buf[0] != frameFooter || binary.LittleEndian.Uint32(buf[1:5]) != n {
		return nil, false, fmt.Errorf("%w: trailer mismatch", ErrBadFooter)
	}
	blocks, _, err = parseFooterBody(buf[5:])
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadFooter, err)
	}
	// Offsets must stay inside the data region for positioned reads.
	for i := range blocks {
		if blocks[i].Offset+5+int64(blocks[i].Len) > frameOff {
			return nil, false, fmt.Errorf("%w: block %d overruns data region", ErrBadFooter, i)
		}
	}
	return blocks, true, nil
}

// filterCursor applies a compiled filter over a sequential cursor.
type filterCursor struct {
	c  *FileCursor
	f  *compiledFilter
	qs *QueryStats
}

func (c *filterCursor) Next() (*Event, bool, error) {
	for {
		ev, ok, err := c.c.Next()
		if err != nil || !ok {
			return ev, ok, err
		}
		if c.f.match(ev) {
			c.qs.RecordsMatched++
			return ev, true, nil
		}
	}
}

// indexedCursor decodes only the selected blocks of a v2 segment with
// positioned reads, one record per Next into one reused Event, applying
// the record filter as it serves them. Blocks are self-contained, so
// decoding can start at any selected block; the selection preserves
// file order, so the stream stays (Time, Seq)-sorted exactly as the
// sequential cursor would serve it. Every decoded record, matched or
// not, is checked against the previous decoded one, so an unordered
// segment fails with ErrUnordered as the strict FileCursor fails it.
type indexedCursor struct {
	f      *os.File
	name   string
	blocks []BlockInfo
	filter *compiledFilter
	qs     *QueryStats

	bi  int
	buf []byte
	// The current block: its body (a view of buf), the offset of its next
	// record, the records it has left, its delta chain and string table.
	blk   []byte
	off   int
	left  int
	st    decState
	strs  []string
	ev    Event // the record Next decoded last, reused in place
	order orderCheck
	err   error
}

func (c *indexedCursor) fail(err error) (*Event, bool, error) {
	c.err = fmt.Errorf("trace: segment %s (%s): %w", c.name, FormatV2, err)
	return nil, false, c.err
}

// Next implements Cursor; the event is the cursor's own, valid until the
// next Next.
func (c *indexedCursor) Next() (*Event, bool, error) {
	if c.err != nil {
		return nil, false, c.err
	}
	for {
		if c.left > 0 {
			o, err := decodeRecord2(c.blk, c.off, &c.st, c.strs, &c.ev)
			if err != nil {
				return c.fail(fmt.Errorf("%w: %v", ErrBadBlock, err))
			}
			if err := c.order.check(&c.ev); err != nil {
				return c.fail(err)
			}
			c.off = o
			c.left--
			c.qs.RecordsDecoded++
			if c.filter.match(&c.ev) {
				c.qs.RecordsMatched++
				return &c.ev, true, nil
			}
			continue
		}
		if c.off != len(c.blk) {
			return c.fail(fmt.Errorf("%w: trace: %d trailing bytes in block", ErrBadBlock, len(c.blk)-c.off))
		}
		if c.bi >= len(c.blocks) {
			return nil, false, nil
		}
		bi := c.blocks[c.bi]
		c.bi++
		need := 5 + int(bi.Len)
		if cap(c.buf) < need {
			c.buf = make([]byte, need)
		}
		frame := c.buf[:need]
		if _, err := c.f.ReadAt(frame, bi.Offset); err != nil {
			return c.fail(fmt.Errorf("%w: block at %d: %v", ErrBadBlock, bi.Offset, err))
		}
		if frame[0] != frameBlock || binary.LittleEndian.Uint32(frame[1:5]) != bi.Len {
			return c.fail(fmt.Errorf("%w: frame at %d disagrees with index", ErrBadBlock, bi.Offset))
		}
		body := frame[5:]
		count, strs, o, err := decodeBlockHeader(body, c.strs[:0])
		c.strs = strs
		if err != nil {
			return c.fail(fmt.Errorf("%w: %v", ErrBadBlock, err))
		}
		// Node filters skip the record decode entirely when the block's
		// string table does not mention the node.
		if c.filter.node != "" && !slices.Contains(strs, c.filter.node) {
			c.qs.BlocksSkipped++
			continue
		}
		c.blk, c.off, c.left, c.st = body, o, count, decState{}
		c.qs.BlocksRead++
	}
}
