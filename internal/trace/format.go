package trace

import (
	"encoding/binary"
	"fmt"

	"github.com/tracesynth/rostracer/internal/sim"
)

// .rtrc v2: a block-based, delta-compressed, indexed segment format.
//
// Where v1 writes one fixed-width length-delimited record per event, v2
// groups records into blocks and exploits the stream's shape: Time, Seq,
// PID, and SrcTS are near-monotone (delta + zigzag varint), most payload
// fields are zero for most kinds (a per-record presence mask skips
// them), and node/topic names recur constantly (a per-block interned
// string table turns them into one-byte references). A footer index
// written on Close records every block's byte offset, time range, kind
// bitmap, and record count, so a reader can seek straight to the blocks
// overlapping a query instead of decoding the whole segment.
//
// On-disk layout (little endian; see docs/FORMAT.md for the full spec):
//
//	magic "RTRC2\n"
//	block*:  u8 tag=0x01, u32 bodyLen, body
//	footer:  u8 tag=0x02, u32 bodyLen, body,
//	         u32 bodyLen (again), 8-byte trailer magic "RTRC2IX\n"
//
// Blocks are self-contained (delta state and string table reset per
// block), so a crash-truncated segment — footer missing, or the last
// block torn — degrades exactly like a torn v1 segment: every complete
// block is readable, plus the complete-record prefix of a torn block.
type Format uint8

// Segment format versions. The zero value means "default" (v2) wherever
// a format knob is optional.
const (
	FormatV1 Format = 1 // fixed-width length-delimited records (RTRC1\n)
	FormatV2 Format = 2 // delta-compressed blocks + footer index (RTRC2\n)
)

func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	}
	return "unknown"
}

const binMagic2 = "RTRC2\n"

// Magic sniffing reads one fixed-size prefix, so both magics must be the
// same length (this const overflows at compile time if they diverge).
const _ = uint(len(binMagic)-len(binMagic2)) * uint(len(binMagic2)-len(binMagic))

const (
	frameBlock  = 0x01
	frameFooter = 0x02

	// footerTrailerMagic ends every v2 segment; with the u32 footer length
	// before it, a reader finds the footer in one seek from EOF.
	footerTrailerMagic = "RTRC2IX\n"
	footerTrailerLen   = 4 + len(footerTrailerMagic)

	// defaultBlockRecords is the records-per-block bound: large enough to
	// amortize the table and index entry, small enough that a filtered
	// read over a narrow window decodes little beyond its matches.
	defaultBlockRecords = 256

	// Decode-side sanity bounds: hostile inputs must not size allocations.
	maxBlockBody  = 1 << 26
	maxFooterBody = 1 << 26
	maxBlockCount = 1 << 20
	maxTableCount = 1 << 20
)

// Per-record presence-mask bits: a set bit means the field follows in
// the record; clear means its implied value (zero, or the previous
// record's value for the delta-chained PID).
const (
	maskPID       = 1 << 0 // zigzag delta from previous record's PID
	maskCBID      = 1 << 1
	maskSrcTS     = 1 << 2 // zigzag delta from previous record's SrcTS
	maskRet       = 1 << 3
	maskCPU       = 1 << 4
	maskPrevPID   = 1 << 5
	maskNextPID   = 1 << 6
	maskPrevPrio  = 1 << 7
	maskNextPrio  = 1 << 8
	maskPrevState = 1 << 9
	maskNode      = 1 << 10 // string-table reference (1-based)
	maskTopic     = 1 << 11
	maskAll       = 1<<12 - 1
)

// zz / unzz are the zigzag mapping varints need for signed values. All
// deltas use wraparound arithmetic on both sides, so even adversarial
// 64-bit jumps round-trip exactly.
func zz(v int64) uint64   { return uint64(v)<<1 ^ uint64(v>>63) }
func unzz(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// BlockInfo is one footer-index entry: where a block lives and what it
// holds, enough to decide from the index alone whether a time-range or
// kind-filtered read must decode it.
type BlockInfo struct {
	Offset  int64  // file offset of the block's frame tag
	Len     uint32 // body length (frame is 5 + Len bytes)
	Count   int    // records in the block
	MinTime sim.Time
	MaxTime sim.Time
	Kinds   uint32 // bitmap over Kind (bit k set when kind k occurs)
}

// kindBit returns k's bitmap bit (0 for kinds beyond the bitmap, which
// decodeRecord2 rejects anyway).
func kindBit(k Kind) uint32 {
	if k < 32 {
		return 1 << k
	}
	return 0
}

// blockEnc accumulates one block on the write side. Buffers, the string
// table, and its map are reused across blocks, so the per-event hot path
// allocates nothing once warm.
type blockEnc struct {
	records []byte
	strs    []string
	strIdx  map[string]uint64
	count   int
	minT    sim.Time
	maxT    sim.Time
	kinds   uint32

	prevTime int64
	prevSeq  uint64
	prevPID  uint32
	prevSrc  int64
}

func newBlockEnc() *blockEnc {
	return &blockEnc{
		records: make([]byte, 0, 4096),
		strIdx:  make(map[string]uint64),
	}
}

// reset clears the encoder for the next block. Delta state resets too:
// blocks are self-contained so a seek read can start at any of them.
func (be *blockEnc) reset() {
	be.records = be.records[:0]
	be.strs = be.strs[:0]
	clear(be.strIdx)
	be.count = 0
	be.kinds = 0
	be.prevTime, be.prevSeq, be.prevPID, be.prevSrc = 0, 0, 0, 0
}

// ref interns s into the block's string table, returning its 1-based
// reference (0 encodes the empty string).
func (be *blockEnc) ref(s string) uint64 {
	if s == "" {
		return 0
	}
	if i, ok := be.strIdx[s]; ok {
		return i + 1
	}
	i := uint64(len(be.strs))
	be.strs = append(be.strs, s)
	be.strIdx[s] = i
	return i + 1
}

// add encodes one record into the block.
func (be *blockEnc) add(e *Event) {
	nodeRef := be.ref(e.Node)
	topicRef := be.ref(e.Topic)
	pidD := int64(e.PID) - int64(be.prevPID)
	srcD := e.SrcTS - be.prevSrc

	var mask uint64
	if pidD != 0 {
		mask |= maskPID
	}
	if e.CBID != 0 {
		mask |= maskCBID
	}
	if srcD != 0 {
		mask |= maskSrcTS
	}
	if e.Ret != 0 {
		mask |= maskRet
	}
	if e.CPU != 0 {
		mask |= maskCPU
	}
	if e.PrevPID != 0 {
		mask |= maskPrevPID
	}
	if e.NextPID != 0 {
		mask |= maskNextPID
	}
	if e.PrevPrio != 0 {
		mask |= maskPrevPrio
	}
	if e.NextPrio != 0 {
		mask |= maskNextPrio
	}
	if e.PrevState != 0 {
		mask |= maskPrevState
	}
	if nodeRef != 0 {
		mask |= maskNode
	}
	if topicRef != 0 {
		mask |= maskTopic
	}

	b := append(be.records, byte(e.Kind))
	b = binary.AppendUvarint(b, mask)
	b = binary.AppendUvarint(b, zz(int64(e.Time)-be.prevTime))
	b = binary.AppendUvarint(b, zz(int64(e.Seq-be.prevSeq)))
	if mask&maskPID != 0 {
		b = binary.AppendUvarint(b, zz(pidD))
	}
	if mask&maskCBID != 0 {
		b = binary.AppendUvarint(b, e.CBID)
	}
	if mask&maskSrcTS != 0 {
		b = binary.AppendUvarint(b, zz(srcD))
	}
	if mask&maskRet != 0 {
		b = binary.AppendUvarint(b, e.Ret)
	}
	if mask&maskCPU != 0 {
		b = binary.AppendUvarint(b, zz(int64(e.CPU)))
	}
	if mask&maskPrevPID != 0 {
		b = binary.AppendUvarint(b, uint64(e.PrevPID))
	}
	if mask&maskNextPID != 0 {
		b = binary.AppendUvarint(b, uint64(e.NextPID))
	}
	if mask&maskPrevPrio != 0 {
		b = binary.AppendUvarint(b, zz(int64(e.PrevPrio)))
	}
	if mask&maskNextPrio != 0 {
		b = binary.AppendUvarint(b, zz(int64(e.NextPrio)))
	}
	if mask&maskPrevState != 0 {
		b = binary.AppendUvarint(b, zz(int64(e.PrevState)))
	}
	if mask&maskNode != 0 {
		b = binary.AppendUvarint(b, nodeRef)
	}
	if mask&maskTopic != 0 {
		b = binary.AppendUvarint(b, topicRef)
	}
	be.records = b

	be.prevTime, be.prevSeq, be.prevPID, be.prevSrc = int64(e.Time), e.Seq, e.PID, e.SrcTS
	if be.count == 0 || e.Time < be.minT {
		be.minT = e.Time
	}
	if be.count == 0 || e.Time > be.maxT {
		be.maxT = e.Time
	}
	be.kinds |= kindBit(e.Kind)
	be.count++
}

// ruv reads one uvarint at offset o, bounds-checked. Most fields of a
// record are small deltas or values that fit one byte; those skip
// ruvLong's general decode.
func ruv(b []byte, o int) (uint64, int, error) {
	if o < len(b) && b[o] < 0x80 {
		return uint64(b[o]), o + 1, nil
	}
	return ruvLong(b, o)
}

func ruvLong(b []byte, o int) (uint64, int, error) {
	v, n := binary.Uvarint(b[o:])
	if n <= 0 {
		return 0, o, fmt.Errorf("trace: truncated or overlong varint at offset %d", o)
	}
	return v, o + n, nil
}

// decState is the per-block delta chain on the decode side.
type decState struct {
	prevTime int64
	prevSeq  uint64
	prevPID  uint32
	prevSrc  int64
}

// decodeRecord2 decodes one v2 record at offset o into e, advancing the
// delta state. It writes every field, zeroing the ones the record's mask
// leaves out, so e can be a reused slot that held an earlier record.
// Every read is bounds-checked; errors never panic, and on error e is
// partially written and must not be served.
func decodeRecord2(b []byte, o int, st *decState, strs []string, e *Event) (int, error) {
	if o >= len(b) {
		return o, fmt.Errorf("trace: record overruns block")
	}
	e.Kind = Kind(b[o])
	if e.Kind == KindInvalid || e.Kind >= numKinds {
		return o, fmt.Errorf("trace: invalid kind %d", b[o])
	}
	o++
	mask, o, err := ruv(b, o)
	if err != nil {
		return o, err
	}
	if mask&^uint64(maskAll) != 0 {
		return o, fmt.Errorf("trace: unknown record mask bits %#x", mask)
	}
	// Clear every field the mask can leave out: e may hold an earlier
	// record. Field stores, not a whole-struct zeroing copy.
	e.CBID, e.Ret, e.Node, e.Topic = 0, 0, "", ""
	e.CPU, e.PrevPID, e.NextPID, e.PrevPrio, e.NextPrio, e.PrevState = 0, 0, 0, 0, 0, 0
	u, o, err := ruv(b, o)
	if err != nil {
		return o, err
	}
	st.prevTime += unzz(u)
	e.Time = sim.Time(st.prevTime)
	if u, o, err = ruv(b, o); err != nil {
		return o, err
	}
	st.prevSeq += uint64(unzz(u))
	e.Seq = st.prevSeq
	if mask&maskPID != 0 {
		if u, o, err = ruv(b, o); err != nil {
			return o, err
		}
		st.prevPID = uint32(int64(st.prevPID) + unzz(u))
	}
	e.PID = st.prevPID
	if mask&maskCBID != 0 {
		if e.CBID, o, err = ruv(b, o); err != nil {
			return o, err
		}
	}
	if mask&maskSrcTS != 0 {
		if u, o, err = ruv(b, o); err != nil {
			return o, err
		}
		st.prevSrc += unzz(u)
	}
	e.SrcTS = st.prevSrc
	if mask&maskRet != 0 {
		if e.Ret, o, err = ruv(b, o); err != nil {
			return o, err
		}
	}
	if mask&maskCPU != 0 {
		if u, o, err = ruv(b, o); err != nil {
			return o, err
		}
		e.CPU = int32(unzz(u))
	}
	if mask&maskPrevPID != 0 {
		if u, o, err = ruv(b, o); err != nil {
			return o, err
		}
		e.PrevPID = uint32(u)
	}
	if mask&maskNextPID != 0 {
		if u, o, err = ruv(b, o); err != nil {
			return o, err
		}
		e.NextPID = uint32(u)
	}
	if mask&maskPrevPrio != 0 {
		if u, o, err = ruv(b, o); err != nil {
			return o, err
		}
		e.PrevPrio = int32(unzz(u))
	}
	if mask&maskNextPrio != 0 {
		if u, o, err = ruv(b, o); err != nil {
			return o, err
		}
		e.NextPrio = int32(unzz(u))
	}
	if mask&maskPrevState != 0 {
		if u, o, err = ruv(b, o); err != nil {
			return o, err
		}
		e.PrevState = int32(unzz(u))
	}
	if mask&maskNode != 0 {
		if u, o, err = ruv(b, o); err != nil {
			return o, err
		}
		if u == 0 || u > uint64(len(strs)) {
			return o, fmt.Errorf("trace: node reference %d outside table of %d", u, len(strs))
		}
		e.Node = strs[u-1]
	}
	if mask&maskTopic != 0 {
		if u, o, err = ruv(b, o); err != nil {
			return o, err
		}
		if u == 0 || u > uint64(len(strs)) {
			return o, fmt.Errorf("trace: topic reference %d outside table of %d", u, len(strs))
		}
		e.Topic = strs[u-1]
	}
	return o, nil
}

// decodeBlockHeader parses a block body's record count and string table,
// returning the offset where records start. Table strings are interned
// once per block, so records share one canonical string per name.
func decodeBlockHeader(body []byte, strs []string) (count int, strsOut []string, o int, err error) {
	c, o, err := ruv(body, 0)
	if err != nil {
		return 0, strs, o, err
	}
	if c > maxBlockCount {
		return 0, strs, o, fmt.Errorf("trace: implausible block record count %d", c)
	}
	nStr, o, err := ruv(body, o)
	if err != nil {
		return 0, strs, o, err
	}
	if nStr > maxTableCount {
		return 0, strs, o, fmt.Errorf("trace: implausible string table size %d", nStr)
	}
	strs = strs[:0]
	for i := uint64(0); i < nStr; i++ {
		l, o2, err := ruv(body, o)
		if err != nil {
			return 0, strs, o, err
		}
		if l > 0xFFFF || o2+int(l) > len(body) {
			return 0, strs, o, fmt.Errorf("trace: string table entry overruns block")
		}
		strs = append(strs, InternBytes(body[o2:o2+int(l)]))
		o = o2 + int(l)
	}
	return int(c), strs, o, nil
}

// appendFooterBody encodes the footer index: per-block entries with
// delta-encoded offsets, then the segment's total record count as a
// cross-check.
func appendFooterBody(dst []byte, blocks []BlockInfo, records int) []byte {
	b := binary.AppendUvarint(dst, uint64(len(blocks)))
	prevOff := int64(0)
	for i := range blocks {
		bi := &blocks[i]
		b = binary.AppendUvarint(b, uint64(bi.Offset-prevOff))
		prevOff = bi.Offset
		b = binary.AppendUvarint(b, uint64(bi.Len))
		b = binary.AppendUvarint(b, uint64(bi.Count))
		b = binary.AppendUvarint(b, zz(int64(bi.MinTime)))
		b = binary.AppendUvarint(b, uint64(int64(bi.MaxTime)-int64(bi.MinTime)))
		b = binary.AppendUvarint(b, uint64(bi.Kinds))
	}
	return binary.AppendUvarint(b, uint64(records))
}

// parseFooterBody decodes and structurally validates a footer index.
func parseFooterBody(body []byte) (blocks []BlockInfo, records int, err error) {
	n, o, err := ruv(body, 0)
	if err != nil {
		return nil, 0, err
	}
	if n > maxBlockCount {
		return nil, 0, fmt.Errorf("trace: implausible footer block count %d", n)
	}
	blocks = make([]BlockInfo, 0, n)
	prevOff := int64(0)
	for i := uint64(0); i < n; i++ {
		var bi BlockInfo
		var u uint64
		if u, o, err = ruv(body, o); err != nil {
			return nil, 0, err
		}
		bi.Offset = prevOff + int64(u)
		if bi.Offset < int64(len(binMagic2)) || (i > 0 && u == 0) {
			return nil, 0, fmt.Errorf("trace: footer block offsets not increasing")
		}
		prevOff = bi.Offset
		if u, o, err = ruv(body, o); err != nil {
			return nil, 0, err
		}
		if u == 0 || u > maxBlockBody {
			return nil, 0, fmt.Errorf("trace: implausible footer block length %d", u)
		}
		bi.Len = uint32(u)
		if u, o, err = ruv(body, o); err != nil {
			return nil, 0, err
		}
		if u > maxBlockCount {
			return nil, 0, fmt.Errorf("trace: implausible footer record count %d", u)
		}
		bi.Count = int(u)
		if u, o, err = ruv(body, o); err != nil {
			return nil, 0, err
		}
		bi.MinTime = sim.Time(unzz(u))
		if u, o, err = ruv(body, o); err != nil {
			return nil, 0, err
		}
		bi.MaxTime = bi.MinTime + sim.Time(u)
		if u, o, err = ruv(body, o); err != nil {
			return nil, 0, err
		}
		bi.Kinds = uint32(u)
		blocks = append(blocks, bi)
	}
	rec, o, err := ruv(body, o)
	if err != nil {
		return nil, 0, err
	}
	if o != len(body) {
		return nil, 0, fmt.Errorf("trace: %d trailing bytes in footer", len(body)-o)
	}
	return blocks, int(rec), nil
}
