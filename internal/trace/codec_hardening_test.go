package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"github.com/tracesynth/rostracer/internal/sim"
)

// encodeSample returns the binary encoding of the sample trace.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, &Trace{Events: sampleEvents()}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryTruncationNeverPanics cuts a valid encoding at every possible
// byte length. Any prefix must decode to an error or a prefix of the
// original events — never panic, never invent events.
func TestBinaryTruncationNeverPanics(t *testing.T) {
	full := encodeSample(t)
	want := sampleEvents()
	for cut := 0; cut < len(full); cut++ {
		got, err := decodeAll(bytes.NewReader(full[:cut]))
		if err != nil {
			continue
		}
		if len(got.Events) > len(want) {
			t.Fatalf("cut %d: decoded %d events from a %d-event trace", cut, len(got.Events), len(want))
		}
		for i := range got.Events {
			if got.Events[i] != want[i] {
				t.Fatalf("cut %d: event %d = %v, want %v", cut, i, got.Events[i], want[i])
			}
		}
	}
}

// TestBinaryCorruptRecords drives decodeRecord through every class of
// malformed record the length-prefix framing can deliver.
func TestBinaryCorruptRecords(t *testing.T) {
	// validBody builds one well-formed record body (everything after the
	// u32 length prefix).
	validBody := func(node, topic string) []byte {
		var buf bytes.Buffer
		ev := Event{Time: 1, Seq: 2, PID: 3, Kind: KindCreateNode, Node: node, Topic: topic}
		if err := WriteBinary(&buf, &Trace{Events: []Event{ev}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()[len(binMagic)+4:]
	}

	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"kind only", []byte{byte(KindCreateNode)}},
		{"short header", validBody("n", "")[:recFixedSize-1]},
		{"invalid kind zero", append([]byte{0}, validBody("", "")[1:]...)},
		{"invalid kind high", append([]byte{200}, validBody("", "")[1:]...)},
		{"node length overruns", func() []byte {
			b := validBody("name", "")
			// nodeLen sits right after the fixed numeric header.
			binary.LittleEndian.PutUint16(b[recFixedSize-4:], 0xFFFF)
			return b
		}()},
		{"node eats topic prefix", func() []byte {
			b := validBody("name", "")
			// Claim exactly the bytes that hold the topic length prefix.
			binary.LittleEndian.PutUint16(b[recFixedSize-4:], uint16(len(b)-recFixedSize+2))
			return b
		}()},
		{"topic length overruns", func() []byte {
			b := validBody("", "topic")
			binary.LittleEndian.PutUint16(b[len(b)-len("topic")-2:], 0xFFFF)
			return b
		}()},
		{"trailing garbage", append(validBody("n", "t"), 0xDE, 0xAD)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			buf.WriteString(binMagic)
			var lenBuf [4]byte
			binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(tc.body)))
			buf.Write(lenBuf[:])
			buf.Write(tc.body)
			if _, err := decodeAll(&buf); err == nil {
				t.Fatalf("malformed record accepted")
			}
		})
	}
}

// TestBinaryImplausibleLengths checks the framing-level length guard.
func TestBinaryImplausibleLengths(t *testing.T) {
	for _, n := range []uint32{0, 1, recFixedSize - 1, 1<<20 + 1, 0xFFFFFFFF} {
		var buf bytes.Buffer
		buf.WriteString(binMagic)
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], n)
		buf.Write(lenBuf[:])
		if _, err := decodeAll(&buf); err == nil {
			t.Fatalf("record length %d accepted", n)
		}
	}
}

// TestInternReturnsCanonicalStrings checks the decode paths share one
// string per distinct name.
func TestInternReturnsCanonicalStrings(t *testing.T) {
	a := InternBytes([]byte("lidar_front/points_raw"))
	b := InternBytes([]byte("lidar_front/points_raw"))
	if a != b {
		t.Fatal("intern returned unequal strings")
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("intern returned two copies of one name")
	}
	if InternBytes(nil) != "" || InternBytes([]byte{}) != "" {
		t.Fatal("empty name must intern to the empty string")
	}
}

// TestInternStatsCounters checks the traffic counters: a repeated name
// counts one miss then hits, and an oversized name counts as capped
// (the fell-back-to-allocation bucket the drain-alloc gate attributes
// regressions to). The counters are process-global, so only deltas are
// asserted.
func TestInternStatsCounters(t *testing.T) {
	h0, m0, c0 := InternStats()
	InternBytes([]byte("stats_probe/topic_a"))
	InternBytes([]byte("stats_probe/topic_a"))
	InternBytes([]byte("stats_probe/topic_a"))
	h1, m1, c1 := InternStats()
	if m1-m0 < 1 {
		t.Fatalf("miss counter did not advance: %d -> %d", m0, m1)
	}
	if h1-h0 < 2 {
		t.Fatalf("hit counter advanced %d, want >= 2", h1-h0)
	}
	if c1 != c0 {
		t.Fatalf("capped counter advanced %d on in-bounds names", c1-c0)
	}
	long := make([]byte, internMaxLen+1)
	for i := range long {
		long[i] = 'x'
	}
	InternBytes(long)
	InternBytes(long)
	if _, _, c2 := InternStats(); c2-c1 != 2 {
		t.Fatalf("capped counter advanced %d on oversized names, want 2", c2-c1)
	}
}

// TestBinaryDecodeInternsNames checks decoded events reuse one string per
// distinct node/topic across records.
func TestBinaryDecodeInternsNames(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 8; i++ {
		tr.Events = append(tr.Events, Event{Time: sim.Time(i), Seq: uint64(i), Kind: KindDDSWrite, Topic: "recurring/topic"})
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := decodeAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	canon := InternBytes([]byte("recurring/topic"))
	for i, e := range got.Events {
		if unsafe.StringData(e.Topic) != unsafe.StringData(canon) {
			t.Fatalf("event %d topic not interned", i)
		}
	}
}
