package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Damage classification sentinels: every FileCursor decode failure wraps
// exactly one of these, so salvage and fsck can classify what went wrong
// with errors.Is instead of matching message strings. The distinction
// matters operationally — a truncated segment is a crashed writer (its
// prefix is trustworthy), a corrupt one is media damage (the prefix is
// trustworthy only up to the damage point), a bad magic is not a segment
// at all, and an unordered segment was written by a broken producer.
var (
	ErrBadMagic  = errors.New("trace: bad segment magic")
	ErrTruncated = errors.New("trace: segment truncated mid-record")
	ErrCorrupt   = errors.New("trace: corrupt segment record")
	ErrUnordered = errors.New("trace: segment records out of (Time, Seq) order")
	// v2-specific damage classes: a complete block frame whose body does
	// not decode (media damage inside the frame), and a footer index that
	// is torn, malformed, or disagrees with the blocks actually on disk.
	// Both leave every earlier complete block trustworthy, which is why
	// they are distinct from ErrCorrupt (whose v1 meaning — record-level
	// damage — stops the trustworthy prefix at the damage point too).
	ErrBadBlock  = errors.New("trace: corrupt segment block")
	ErrBadFooter = errors.New("trace: bad segment footer index")
)

// Streaming persistence: SegmentWriter is the Sink side of the trace
// database (events append to a .rtrc segment as they are observed) and
// FileCursor is the Cursor side, and the only segment decoder: records
// decode one at a time off a buffered reader, or off the block frames an
// index selects. Together they make disk a pass-through stage of the
// streaming pipeline: a drain can flow rings -> merge -> segment file,
// and a stored session can flow segment files -> merge -> model builder,
// with peak buffering of one event per stream on either side.

// SegmentWriter writes the binary .rtrc codec incrementally: the magic
// header goes out on creation and every Observe appends one
// length-delimited record, so a segment of any size is written with one
// event of state. The format is self-delimiting (records carry their own
// length prefixes and the stream ends at EOF), so Close has no count
// field to patch — it only flushes, and a segment interrupted mid-write
// is recognizable by its truncated final record (see FileCursor).
//
// Errors are sticky: the first write or encode error stops further
// output and is reported by Err and Close. A SegmentWriter produces
// byte-identical output to WriteBinary over the same event sequence
// (WriteBinary is implemented as one).
type SegmentWriter struct {
	bw     *bufio.Writer
	c      io.Closer // owned destination, closed by Close (nil for plain writers)
	path   string    // destination file, when opened through a Store
	n      int
	err    error
	closed bool
	// Reused encode buffers: Observe is the per-event hot path of every
	// periodic drain, so it must not allocate (stack-local buffers would
	// escape through the io interfaces).
	lenBuf  [4]byte
	scratch []byte
	// v2 state: Observe accumulates records into enc and flushBlock frames
	// a block whenever blockRecords accumulate (or at Close), tracking the
	// footer index as it goes. All nil/zero for v1 writers.
	format       Format
	blockRecords int
	enc          *blockEnc
	off          int64 // file offset where the next block frame lands
	index        []BlockInfo
}

// NewSegmentWriter starts a v1 segment on w by writing the magic header.
// The caller must Close to flush. When w needs closing too (a file), use
// Store.WriteSegment, which hands ownership to the writer. New write
// paths should prefer NewSegmentWriterFormat (v2); this constructor
// stays v1 so its byte-equivalence pin with WriteBinary holds.
func NewSegmentWriter(w io.Writer) *SegmentWriter {
	sw := &SegmentWriter{bw: bufio.NewWriter(w), scratch: make([]byte, 0, 128), format: FormatV1}
	_, sw.err = sw.bw.WriteString(binMagic)
	return sw
}

// NewSegmentWriterFormat starts a segment on w in the given format
// (zero Format and zero blockRecords select the defaults: v2,
// defaultBlockRecords records per block).
func NewSegmentWriterFormat(w io.Writer, format Format, blockRecords int) *SegmentWriter {
	if format == 0 {
		format = FormatV2
	}
	if format == FormatV1 {
		return NewSegmentWriter(w)
	}
	if blockRecords <= 0 {
		blockRecords = defaultBlockRecords
	}
	sw := &SegmentWriter{
		bw:           bufio.NewWriter(w),
		scratch:      make([]byte, 0, 128),
		format:       FormatV2,
		blockRecords: blockRecords,
		enc:          newBlockEnc(),
	}
	_, sw.err = sw.bw.WriteString(binMagic2)
	sw.off = int64(len(binMagic2))
	return sw
}

// Observe implements Sink, appending one record to the segment.
func (sw *SegmentWriter) Observe(e Event) {
	if sw.closed {
		// Buffering into a flushed writer would vanish silently; make the
		// misuse loud instead.
		if sw.err == nil {
			sw.err = fmt.Errorf("trace: Observe on closed segment writer")
		}
		return
	}
	if sw.err != nil {
		return
	}
	if sw.format == FormatV2 {
		if len(e.Node) > 0xFFFF || len(e.Topic) > 0xFFFF {
			sw.err = fmt.Errorf("trace: string field too long in event %v", e)
			return
		}
		sw.enc.add(&e)
		sw.n++
		if sw.enc.count >= sw.blockRecords {
			sw.flushBlock()
		}
		return
	}
	body, ok := appendRecordBody(sw.scratch[:0], &e)
	if !ok {
		sw.err = fmt.Errorf("trace: string field too long in event %v", e)
		return
	}
	sw.scratch = body[:0] // keep any growth for the next record
	binary.LittleEndian.PutUint32(sw.lenBuf[:], uint32(len(body)))
	if _, err := sw.bw.Write(sw.lenBuf[:]); err != nil {
		sw.err = err
		return
	}
	if _, err := sw.bw.Write(body); err != nil {
		sw.err = err
		return
	}
	sw.n++
}

// flushBlock frames the accumulated v2 block onto the buffered writer
// and records its index entry. The encoder's buffers are reused for the
// next block.
func (sw *SegmentWriter) flushBlock() {
	enc := sw.enc
	if sw.err != nil || enc.count == 0 {
		return
	}
	hdr := binary.AppendUvarint(sw.scratch[:0], uint64(enc.count))
	hdr = binary.AppendUvarint(hdr, uint64(len(enc.strs)))
	for _, s := range enc.strs {
		hdr = binary.AppendUvarint(hdr, uint64(len(s)))
		hdr = append(hdr, s...)
	}
	sw.scratch = hdr[:0]
	bodyLen := len(hdr) + len(enc.records)
	sw.lenBuf[0] = frameBlock
	if _, sw.err = sw.bw.Write(sw.lenBuf[:1]); sw.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(sw.lenBuf[:], uint32(bodyLen))
	if _, sw.err = sw.bw.Write(sw.lenBuf[:]); sw.err != nil {
		return
	}
	if _, sw.err = sw.bw.Write(hdr); sw.err != nil {
		return
	}
	if _, sw.err = sw.bw.Write(enc.records); sw.err != nil {
		return
	}
	sw.index = append(sw.index, BlockInfo{
		Offset:  sw.off,
		Len:     uint32(bodyLen),
		Count:   enc.count,
		MinTime: enc.minT,
		MaxTime: enc.maxT,
		Kinds:   enc.kinds,
	})
	sw.off += int64(5 + bodyLen)
	enc.reset()
}

// writeFooter frames the footer index and its fixed-size trailer; only
// Close calls it, which is what gives v2 its crash semantics: a segment
// without a footer is a crashed writer, readable as complete blocks.
func (sw *SegmentWriter) writeFooter() {
	if sw.err != nil {
		return
	}
	body := appendFooterBody(sw.scratch[:0], sw.index, sw.n)
	sw.lenBuf[0] = frameFooter
	if _, err := sw.bw.Write(sw.lenBuf[:1]); err != nil {
		sw.err = err
		return
	}
	binary.LittleEndian.PutUint32(sw.lenBuf[:], uint32(len(body)))
	if _, err := sw.bw.Write(sw.lenBuf[:]); err != nil {
		sw.err = err
		return
	}
	if _, err := sw.bw.Write(body); err != nil {
		sw.err = err
		return
	}
	if _, err := sw.bw.Write(sw.lenBuf[:]); err != nil { // body length again, for EOF seek
		sw.err = err
		return
	}
	if _, err := sw.bw.WriteString(footerTrailerMagic); err != nil {
		sw.err = err
		return
	}
	sw.scratch = body[:0]
}

// Path reports the destination file of a store-opened writer (empty for
// plain io.Writer destinations) — what a caller removes when a failed
// drain must not leave a partial segment looking like a complete one.
func (sw *SegmentWriter) Path() string { return sw.path }

// Err reports the first write or encode error, if any.
func (sw *SegmentWriter) Err() error { return sw.err }

// Flush forces buffered output down to the destination, reporting the
// stream's first error. Observe buffers (bufio, plus the open block in
// v2), so a destination failure normally surfaces records later, at a
// buffer or block boundary or at Close; a recovery path that must know
// now whether a fresh segment's disk is writable flushes right after
// opening instead of discovering the answer mid-drain. Flush does not
// frame the open v2 block — only Close and the blockRecords bound do —
// so flushing mid-block keeps the block layout deterministic.
func (sw *SegmentWriter) Flush() error {
	if sw.closed || sw.err != nil {
		return sw.err
	}
	sw.err = sw.bw.Flush()
	return sw.err
}

// Close flushes buffered output (and closes the destination when the
// writer owns it), reporting the first error of the whole stream. For v2
// this is also where the final block and the footer index are framed:
// a segment that never reached Close has no footer, which is exactly how
// readers recognize a crashed writer. Close is idempotent.
func (sw *SegmentWriter) Close() error {
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	if sw.format == FormatV2 {
		sw.flushBlock()
		sw.writeFooter()
	}
	if sw.err == nil {
		sw.err = sw.bw.Flush()
	}
	if sw.c != nil {
		if cerr := sw.c.Close(); sw.err == nil {
			sw.err = cerr
		}
	}
	return sw.err
}

// FileCursor decodes a .rtrc segment into a Cursor: one record per Next,
// off a buffered reader, into a single reused Event — reading a
// multi-GB segment holds one record (v1) or one block's encoded body
// (v2) in memory, never the segment. It is the only segment decoder:
// StreamSession, QuerySession, SalvageSession and Fsck all read through
// it. A segment truncated mid-record — e.g. by a writer killed before
// Close — yields every complete record and then an error, so no
// partial-record event ever reaches a sink; FuzzFileCursor checks that
// every input it accepts re-encodes to the same events.
//
// A store-opened cursor can also carry a record filter and, for a v2
// segment with a footer, the index entries of the blocks to read: it
// then reads each listed frame with one positioned read and decodes it
// through the same block, record and order code as a sequential read.
type FileCursor struct {
	src  io.Reader
	br   *bufio.Reader // buffers src, made on the first sequential read
	file *os.File      // owned segment file, closed by Close (nil for plain readers)
	name string        // when set (store-opened cursors), errors name the segment
	buf  []byte
	// strict makes Next reject records out of (Time, Seq) order. Store
	// segments are required sorted (MergeStream cannot re-sort, and an
	// out-of-order stream would silently corrupt Algorithm 2's windows),
	// so store-opened cursors validate; the plain codec keeps accepting
	// arbitrary traces, as WriteBinary round-trips them.
	strict  bool
	order   OrderCheck
	lenBuf  [4]byte // reused: a stack-local would escape through io.ReadFull
	err     error
	started bool
	done    bool
	// consumed counts the bytes of the stream covered by the magic header
	// and every fully decoded frame — the length of the longest prefix
	// that is itself a valid segment. Salvage uses it to report how many
	// bytes of a damaged segment were recovered vs dropped. For v1 the
	// granularity is one record; for v2 it is one block frame, counted
	// when the whole frame has been read and taken back if a record in it
	// fails to decode or trailing bytes remain (the complete-record prefix
	// of a torn or bad block is yielded but not counted, since those bytes
	// are not themselves a valid segment).
	consumed int64
	version  Format
	ev       Event // the record Next decoded last, reused in place
	// v2 state: the current block's body (a view of buf), the offset of
	// its next record, the records it has left, its delta chain and string
	// table, and its index entry as far as decoded. blkTorn is the
	// truncation error of a torn frame (nil for a complete one). An error
	// is held back in pendingErr until the block's last record has been
	// served, and obsIndex is the observed block index (validated against
	// the footer).
	blk        []byte
	blkOff     int
	blkLeft    int
	blkSt      decState
	blkStrs    []string
	blkInfo    BlockInfo
	blkTorn    error
	pendingErr error
	obsIndex   []BlockInfo
	recCount   int
	// Filtered reads: records filter rejects are decoded but not served
	// (nil serves all, uncounted); decoded and matched count the records
	// decoded and served under a filter. sel, when non-nil, lists the
	// index entries of the blocks to read and selAt the next one; stepped
	// counts the selected blocks passed over because their string table
	// lacks the node filter. badIndex is the first entry found to
	// disagree with its block, reported where a sequential read reports
	// it: at the segment's end.
	filter           *compiledFilter
	sel              []BlockInfo
	selAt            int
	stepped          int
	decoded, matched int
	badIndex         error
}

// NewFileCursor opens a cursor over a .rtrc stream. The magic header is
// validated on the first Next. When r needs closing (a file), use
// Store.SessionCursors, which hands ownership to the cursor.
func NewFileCursor(r io.Reader) *FileCursor {
	return &FileCursor{src: r}
}

// readSelected makes the cursor read only the listed blocks of its v2
// segment, whose magic and footer the caller has already read.
func (c *FileCursor) readSelected(sel []BlockInfo) {
	c.sel, c.started, c.version, c.consumed = sel, true, FormatV2, int64(len(binMagic2))
}

func (c *FileCursor) fail(err error) (*Event, bool, error) {
	if c.name != "" {
		err = fmt.Errorf("trace: segment %s (%s): %w", c.name, c.version, err)
	}
	c.err = err
	return nil, false, c.err
}

// OrderCheck enforces (Time, Seq) order over the events of a stream: the
// one check behind strict segment reads, the model builder and the
// metrics sink.
type OrderCheck struct {
	time sim.Time
	seq  uint64
	set  bool
}

// Check fails with ErrUnordered when ev sorts before the previous event.
func (o *OrderCheck) Check(ev *Event) error {
	if o.set && (ev.Time < o.time || (ev.Time == o.time && ev.Seq < o.seq)) {
		return fmt.Errorf("%w: (%d, %d) after (%d, %d)", ErrUnordered, ev.Time, ev.Seq, o.time, o.seq)
	}
	o.time, o.seq, o.set = ev.Time, ev.Seq, true
	return nil
}

// Last reports the time of the last event checked (zero before the
// first).
func (o *OrderCheck) Last() sim.Time { return o.time }

// Next implements Cursor. Errors are sticky: after the first decode
// error the cursor keeps returning it. The event is the cursor's one
// reused Event, decoded in place from the current record (v1) or from
// the current block's body at the next record's offset (v2), and valid
// until the next Next.
func (c *FileCursor) Next() (*Event, bool, error) {
	if c.err != nil {
		return nil, false, c.err
	}
	if c.done {
		return nil, false, nil
	}
	if !c.started {
		c.started = true
		c.br = bufio.NewReader(c.src)
		var magic [len(binMagic)]byte
		if _, err := io.ReadFull(c.br, magic[:]); err != nil {
			return c.fail(fmt.Errorf("%w: reading magic: %w", ErrTruncated, err))
		}
		switch string(magic[:]) {
		case binMagic:
			c.version = FormatV1
		case binMagic2:
			c.version = FormatV2
		default:
			return c.fail(fmt.Errorf("%w: %q", ErrBadMagic, magic))
		}
		c.consumed = int64(len(binMagic))
	}
	if c.version == FormatV2 {
		return c.nextV2()
	}
	for {
		if _, err := io.ReadFull(c.br, c.lenBuf[:]); err != nil {
			if err == io.EOF {
				c.done = true
				return nil, false, nil
			}
			return c.fail(fmt.Errorf("%w: record length: %w", ErrTruncated, err))
		}
		n := binary.LittleEndian.Uint32(c.lenBuf[:])
		if n < recFixedSize || n > 1<<20 {
			return c.fail(fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n))
		}
		if cap(c.buf) < int(n) {
			c.buf = make([]byte, n)
		}
		buf := c.buf[:n]
		if _, err := io.ReadFull(c.br, buf); err != nil {
			return c.fail(fmt.Errorf("%w: record body: %w", ErrTruncated, err))
		}
		// decodeRecord interns the string fields, so the record buffer can be
		// reused for the next Next.
		if err := decodeRecord(buf, &c.ev); err != nil {
			return c.fail(fmt.Errorf("%w: %w", ErrCorrupt, err))
		}
		if c.strict {
			if err := c.order.Check(&c.ev); err != nil {
				return c.fail(err)
			}
		}
		c.consumed += int64(4 + n)
		if c.filter == nil {
			return &c.ev, true, nil
		}
		c.decoded++
		if c.filter.match(&c.ev) {
			c.matched++
			return &c.ev, true, nil
		}
	}
}

// nextV2 decodes the current block's next record, pulling the next
// frame when the block runs dry. A torn or damaged block's
// complete-record prefix is served before its error surfaces, matching
// v1's "every complete record, then the error" salvage semantics.
func (c *FileCursor) nextV2() (*Event, bool, error) {
	for {
		if c.blkLeft > 0 {
			if err := c.decodeNext(&c.ev); err != nil {
				return c.fail(err)
			}
			if c.strict {
				if err := c.order.Check(&c.ev); err != nil {
					// Settle the rest of the block unserved, so the frame's count
					// and index entry stand as if every record had been read.
					var rest Event
					for c.blkLeft > 0 && c.decodeNext(&rest) == nil {
					}
					return c.fail(err)
				}
			}
			if c.filter == nil {
				return &c.ev, true, nil
			}
			c.decoded++
			if c.filter.match(&c.ev) {
				c.matched++
				return &c.ev, true, nil
			}
			continue
		}
		if c.pendingErr != nil {
			return c.fail(c.pendingErr)
		}
		if c.sel != nil {
			if c.selAt == len(c.sel) {
				if c.badIndex != nil {
					return c.fail(c.badIndex)
				}
				c.done = true
				return nil, false, nil
			}
			if err := c.readSelectedBlock(); err != nil {
				return c.fail(err)
			}
			continue
		}
		tag, err := c.br.ReadByte()
		if err != nil {
			if err == io.EOF {
				// EOF at a frame boundary with no footer seen: a crashed
				// writer. Every block already served is trustworthy, so this
				// ends the stream cleanly, like a v1 segment cut at a record
				// boundary.
				c.done = true
				return nil, false, nil
			}
			return c.fail(fmt.Errorf("%w: frame tag: %w", ErrTruncated, err))
		}
		switch tag {
		case frameBlock:
			if err := c.readBlock(); err != nil {
				return c.fail(err)
			}
		case frameFooter:
			if err := c.readFooter(); err != nil {
				return c.fail(err)
			}
			c.done = true
			return nil, false, nil
		default:
			return c.fail(fmt.Errorf("%w: unknown frame tag %#x", ErrCorrupt, tag))
		}
	}
}

// readBlock reads one block frame off the stream, leaving its records to
// decodeNext. Damage to the frame itself fails immediately; a torn body
// still serves its complete-record prefix before the truncation error.
func (c *FileCursor) readBlock() error {
	if _, err := io.ReadFull(c.br, c.lenBuf[:]); err != nil {
		return fmt.Errorf("%w: block length: %w", ErrTruncated, err)
	}
	n := binary.LittleEndian.Uint32(c.lenBuf[:])
	if n == 0 || n > maxBlockBody {
		return fmt.Errorf("%w: implausible block length %d", ErrCorrupt, n)
	}
	if cap(c.buf) < int(n) {
		c.buf = make([]byte, n)
	}
	m, rerr := io.ReadFull(c.br, c.buf[:n])
	c.blk, c.blkTorn = c.buf[:m], nil
	c.blkInfo = BlockInfo{Offset: c.consumed, Len: n}
	if rerr != nil {
		c.blkTorn = fmt.Errorf("%w: block body: %w", ErrTruncated, rerr)
	} else {
		c.consumed += int64(5 + n)
	}
	return c.startBlock()
}

// readSelectedBlock reads the next selected block frame with one
// positioned read, checks its tag and length against the index entry,
// and starts it like a sequentially read block. A frame that disagrees
// with its entry ends the trust in the index: the cursor reads on
// sequentially from the end of the last frame it read, as StreamSession
// reads, so damage to the data or to the index fails it with
// StreamSession's error.
func (c *FileCursor) readSelectedBlock() error {
	bi := &c.sel[c.selAt]
	c.selAt++
	need := 5 + int(bi.Len)
	if cap(c.buf) < need {
		c.buf = make([]byte, need)
	}
	frame := c.buf[:need]
	if _, err := c.file.ReadAt(frame, bi.Offset); err != nil || frame[0] != frameBlock || binary.LittleEndian.Uint32(frame[1:5]) != bi.Len {
		c.obsIndex = append(c.obsIndex[:0], c.sel[:c.selAt-1]...)
		for _, read := range c.obsIndex {
			c.recCount += read.Count
		}
		c.sel = nil
		c.br = bufio.NewReader(io.NewSectionReader(c.file, c.consumed, 1<<62))
		return nil
	}
	c.blk, c.blkTorn = frame[5:], nil
	c.blkInfo = BlockInfo{Offset: bi.Offset, Len: bi.Len}
	c.consumed = bi.Offset + int64(need)
	return c.startBlock()
}

// startBlock decodes the current block's header. A selected block whose
// string table lacks the node filter is passed over without decoding its
// records.
func (c *FileCursor) startBlock() error {
	count, strs, o, err := decodeBlockHeader(c.blk, c.blkStrs)
	c.blkStrs = strs
	if err != nil {
		return c.blockErr(err)
	}
	if c.sel != nil && c.filter != nil && c.filter.node != "" && !slices.Contains(strs, c.filter.node) {
		c.stepped++
		return nil
	}
	c.blkOff, c.blkLeft, c.blkSt = o, count, decState{}
	c.blkInfo.Count = count
	if count == 0 {
		return c.endBlock()
	}
	return nil
}

// decodeNext decodes the current block's next record into e and folds it
// into the block's index entry. Once the last record is decoded, the
// block's verdict (endBlock) is held in pendingErr, to surface after
// that record has been served.
func (c *FileCursor) decodeNext(e *Event) error {
	o, err := decodeRecord2(c.blk, c.blkOff, &c.blkSt, c.blkStrs, e)
	if err != nil {
		return c.blockErr(err)
	}
	info := &c.blkInfo
	first := c.blkLeft == info.Count
	if first || e.Time < info.MinTime {
		info.MinTime = e.Time
	}
	if first || e.Time > info.MaxTime {
		info.MaxTime = e.Time
	}
	info.Kinds |= kindBit(e.Kind)
	c.blkOff = o
	if c.blkLeft--; c.blkLeft == 0 {
		c.pendingErr = c.endBlock()
	}
	return nil
}

// endBlock settles a block whose records have all decoded: a complete
// frame with no trailing bytes joins the observed index; anything else
// is the block's damage.
func (c *FileCursor) endBlock() error {
	if c.blkTorn != nil {
		return c.blkTorn
	}
	if c.blkOff != len(c.blk) {
		return c.blockErr(fmt.Errorf("trace: %d trailing bytes in block", len(c.blk)-c.blkOff))
	}
	if c.sel != nil {
		if c.blkInfo != c.sel[c.selAt-1] && c.badIndex == nil {
			c.badIndex = fmt.Errorf("%w: entry for the block at %d disagrees with data", ErrBadFooter, c.blkInfo.Offset)
		}
		return nil
	}
	c.obsIndex = append(c.obsIndex, c.blkInfo)
	c.recCount += c.blkInfo.Count
	return nil
}

// blockErr ends the current block on damage found inside it: a torn
// frame reports its truncation; a complete frame's bytes are taken back
// out of consumed and the damage reported as ErrBadBlock.
func (c *FileCursor) blockErr(err error) error {
	c.blkLeft = 0
	if c.blkTorn != nil {
		return c.blkTorn
	}
	c.consumed -= int64(5 + len(c.blk))
	return fmt.Errorf("%w: %w", ErrBadBlock, err)
}

// readFooter reads, validates, and cross-checks the footer index against
// the blocks actually decoded. Anything wrong past the footer tag — a
// torn footer, a trailer mismatch, an index that disagrees with the data
// — is ErrBadFooter: the records are fine, only the index is not.
func (c *FileCursor) readFooter() error {
	badf := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadFooter, fmt.Sprintf(format, args...))
	}
	if _, err := io.ReadFull(c.br, c.lenBuf[:]); err != nil {
		return badf("footer length: %v", err)
	}
	n := binary.LittleEndian.Uint32(c.lenBuf[:])
	if n > maxFooterBody {
		return badf("implausible footer length %d", n)
	}
	need := int(n) + footerTrailerLen
	if cap(c.buf) < need {
		c.buf = make([]byte, need)
	}
	buf := c.buf[:need]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return badf("footer body: %v", err)
	}
	trailer := buf[n:]
	if binary.LittleEndian.Uint32(trailer) != n || string(trailer[4:]) != footerTrailerMagic {
		return badf("trailer mismatch")
	}
	blocks, records, err := parseFooterBody(buf[:n])
	if err != nil {
		return badf("%v", err)
	}
	if len(blocks) != len(c.obsIndex) || records != c.recCount {
		return badf("index disagrees with data: %d vs %d blocks, %d vs %d records",
			len(blocks), len(c.obsIndex), records, c.recCount)
	}
	for i := range blocks {
		if blocks[i] != c.obsIndex[i] {
			return badf("index entry %d disagrees with data", i)
		}
	}
	// Nothing may follow the trailer.
	if _, err := c.br.ReadByte(); err == nil {
		return fmt.Errorf("%w: trailing bytes after footer", ErrCorrupt)
	} else if err != io.EOF {
		return fmt.Errorf("%w: after footer: %w", ErrCorrupt, err)
	}
	c.consumed += int64(5 + need)
	return c.badIndex
}

// BytesConsumed reports the length of the longest stream prefix covered
// by the magic header and fully decoded records. For an undamaged
// segment read to the end this is the whole file; for a damaged one it
// marks the damage point — everything past it is what salvage drops.
func (c *FileCursor) BytesConsumed() int64 { return c.consumed }

// Close releases the segment file when the cursor owns it.
func (c *FileCursor) Close() error {
	if c.file != nil {
		return c.file.Close()
	}
	return nil
}
