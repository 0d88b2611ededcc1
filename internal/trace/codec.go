package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Binary codec: a compact length-delimited record format used by the trace
// database. Layout per record (little endian):
//
//	u32 recordLen (bytes after this field)
//	u8  kind
//	i64 time, u64 seq, u32 pid
//	u64 cbid, i64 srcts, u64 ret
//	i32 cpu, u32 prevPid, u32 nextPid, i32 prevPrio, i32 nextPrio, i32 prevState
//	u16 nodeLen, node bytes
//	u16 topicLen, topic bytes

const binMagic = "RTRC1\n"

// appendRecordBody appends the body of one record — everything after the
// u32 length prefix — to dst. SegmentWriter's v1 path encodes every
// record through it. ok is false when a
// string field exceeds the u16 length prefix; the caller formats the
// error (formatting it here would make every event escape to the heap).
func appendRecordBody(dst []byte, e *Event) (body []byte, ok bool) {
	if len(e.Node) > 0xFFFF || len(e.Topic) > 0xFFFF {
		return nil, false
	}
	b := append(dst, byte(e.Kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Time))
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint32(b, e.PID)
	b = binary.LittleEndian.AppendUint64(b, e.CBID)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.SrcTS))
	b = binary.LittleEndian.AppendUint64(b, e.Ret)
	b = binary.LittleEndian.AppendUint32(b, uint32(e.CPU))
	b = binary.LittleEndian.AppendUint32(b, e.PrevPID)
	b = binary.LittleEndian.AppendUint32(b, e.NextPID)
	b = binary.LittleEndian.AppendUint32(b, uint32(e.PrevPrio))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.NextPrio))
	b = binary.LittleEndian.AppendUint32(b, uint32(e.PrevState))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Node)))
	b = append(b, e.Node...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(e.Topic)))
	b = append(b, e.Topic...)
	return b, true
}

// WriteBinary encodes t to w: the batch wrapper over SegmentWriter.
func WriteBinary(w io.Writer, t *Trace) error {
	sw := NewSegmentWriter(w)
	for _, e := range t.Events {
		sw.Observe(e)
	}
	return sw.Close()
}

// recFixedSize is the byte count of a record's fixed fields: the kind
// byte, the numeric header, and the two (possibly zero-length) string
// length prefixes. Shorter records cannot have been produced by
// SegmentWriter.
const recFixedSize = 1 + // kind
	8 + 8 + 4 + // time, seq, pid
	8 + 8 + 8 + // cbid, srcts, ret
	4*6 + // cpu, prevPid, nextPid, prevPrio, nextPrio, prevState
	2 + 2 // nodeLen, topicLen

// decodeRecord decodes one length-delimited record body into e, writing
// every field (a v1 record carries them all), so e can be a reused slot.
// Every read is bounds-checked: a truncated or corrupt record returns an
// error instead of panicking, so callers can feed the codec untrusted
// trace files. On error e is partially written and must not be served.
func decodeRecord(b []byte, e *Event) error {
	if len(b) < recFixedSize {
		return fmt.Errorf("trace: record too short: %d bytes, need at least %d", len(b), recFixedSize)
	}
	e.Kind = Kind(b[0])
	if e.Kind == KindInvalid || e.Kind >= numKinds {
		return fmt.Errorf("trace: invalid kind %d", b[0])
	}
	o := 1
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(b[o:]); o += 8; return v }
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(b[o:]); o += 4; return v }
	e.Time = sim.Time(u64())
	e.Seq = u64()
	e.PID = u32()
	e.CBID = u64()
	e.SrcTS = int64(u64())
	e.Ret = u64()
	e.CPU = int32(u32())
	e.PrevPID = u32()
	e.NextPID = u32()
	e.PrevPrio = int32(u32())
	e.NextPrio = int32(u32())
	e.PrevState = int32(u32())
	nodeLen := int(binary.LittleEndian.Uint16(b[o:]))
	o += 2
	// The second length prefix still has to fit after the node bytes.
	if o+nodeLen+2 > len(b) {
		return fmt.Errorf("trace: node string overruns record")
	}
	node := b[o : o+nodeLen]
	o += nodeLen
	topicLen := int(binary.LittleEndian.Uint16(b[o:]))
	o += 2
	if o+topicLen > len(b) {
		return fmt.Errorf("trace: topic string overruns record")
	}
	if o+topicLen != len(b) {
		return fmt.Errorf("trace: %d trailing bytes after record", len(b)-o-topicLen)
	}
	// Intern only once the whole record has validated, so malformed
	// input cannot populate the process-wide name table.
	e.Node = InternBytes(node)
	e.Topic = InternBytes(b[o : o+topicLen])
	return nil
}

// jsonEvent is the JSONL wire form, with omission of empty fields.
type jsonEvent struct {
	T     int64  `json:"t"`
	Seq   uint64 `json:"seq"`
	PID   uint32 `json:"pid,omitempty"`
	Kind  string `json:"kind"`
	K     uint8  `json:"k"`
	Node  string `json:"node,omitempty"`
	CBID  uint64 `json:"cbid,omitempty"`
	Topic string `json:"topic,omitempty"`
	SrcTS int64  `json:"srcts,omitempty"`
	Ret   uint64 `json:"ret,omitempty"`
	CPU   int32  `json:"cpu,omitempty"`
	PPID  uint32 `json:"prev_pid,omitempty"`
	NPID  uint32 `json:"next_pid,omitempty"`
	PPrio int32  `json:"prev_prio,omitempty"`
	NPrio int32  `json:"next_prio,omitempty"`
	PSt   int32  `json:"prev_state,omitempty"`
}

// JSONLSink is a Sink streaming events to w as one JSON object per line.
// Encoding errors are sticky: the first one stops further output and is
// reported by Flush (and Err).
type JSONLSink struct {
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer // non-nil when the sink owns the underlying writer
	err error
}

// NewJSONLSink creates a JSONL sink over w. Call Flush when the stream
// ends.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// NewJSONLSinkCloser is NewJSONLSink over a writer the sink owns: Close
// closes wc after flushing, so a fan-out holding the sink can release
// the file without knowing about it.
func NewJSONLSinkCloser(wc io.WriteCloser) *JSONLSink {
	s := NewJSONLSink(wc)
	s.c = wc
	return s
}

// Observe implements Sink.
func (s *JSONLSink) Observe(e Event) {
	if s.err != nil {
		return
	}
	je := jsonEvent{
		T: int64(e.Time), Seq: e.Seq, PID: e.PID, Kind: e.Kind.String(),
		K: uint8(e.Kind), Node: e.Node, CBID: e.CBID, Topic: e.Topic,
		SrcTS: e.SrcTS, Ret: e.Ret, CPU: e.CPU, PPID: e.PrevPID,
		NPID: e.NextPID, PPrio: e.PrevPrio, NPrio: e.NextPrio, PSt: e.PrevState,
	}
	s.err = s.enc.Encode(&je)
}

// Err reports the first encoding error, if any.
func (s *JSONLSink) Err() error { return s.err }

// Close flushes buffered output — even after a sticky encoding error,
// salvaging the events encoded before it — and closes the underlying
// writer when the sink owns it (NewJSONLSinkCloser). Close is
// idempotent; it reports the first error of the whole stream, then any
// flush or close failure.
func (s *JSONLSink) Close() error {
	ferr := s.bw.Flush()
	var cerr error
	if s.c != nil {
		cerr = s.c.Close()
		s.c = nil
	}
	if s.err != nil {
		return s.err
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}
