package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Cursors decode in place: the v1 and v2 file cursors into one reused
// Event, the indexed query cursor into the slots of one reused decoded
// block. These tests feed records whose presence masks leave fields out
// right after records that set them, in the same slot, and demand every
// served event equal an independent decode into fresh storage, so a
// reused slot never leaks a field from an earlier record.

// richThenSparse returns blocks of n events: even blocks set every
// optional field (ROS payloads with Node, Topic, CBID and Ret; sched
// payloads), odd blocks set none of them, so each odd-block slot follows
// a rich record in the same slot of the previous block.
func richThenSparse(n, blocks int) []Event {
	var evs []Event
	seq := uint64(0)
	for b := 0; b < blocks; b++ {
		for i := 0; i < n; i++ {
			seq++
			e := Event{Time: sim.Time(seq), Seq: seq}
			switch {
			case b%2 == 1:
				e.Kind = KindSubCBStart // mask 0: PID and SrcTS delta from a reset block chain
			case i%2 == 0:
				e.Kind, e.PID, e.Node, e.Topic = KindTakeResponse, 7+uint32(i), "node_a", "svc_b"
				e.CBID, e.SrcTS, e.Ret = 0xabc0+uint64(i), 41, 1
			default:
				e.Kind, e.CPU, e.PrevPID, e.NextPID = KindSchedSwitch, 3, 7, 9
				e.PrevPrio, e.NextPrio, e.PrevState = -2, 5, 1
			}
			evs = append(evs, e)
		}
	}
	return evs
}

// freshV2Decode decodes every block of a v2 segment into newly allocated
// storage, with no slot ever reused.
func freshV2Decode(t *testing.T, data []byte) []Event {
	t.Helper()
	var out []Event
	o := len(binMagic2)
	for o < len(data) && data[o] == frameBlock {
		n := int(binary.LittleEndian.Uint32(data[o+1:]))
		body := data[o+5 : o+5+n]
		count, strs, ro, err := decodeBlockHeader(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		var st decState
		for i := 0; i < count; i++ {
			var e Event
			if ro, err = decodeRecord2(body, ro, &st, strs, &e); err != nil {
				t.Fatal(err)
			}
			out = append(out, e)
		}
		if ro != len(body) {
			t.Fatalf("%d trailing bytes in block", len(body)-ro)
		}
		o += 5 + n
	}
	return out
}

// freshV1Decode decodes every v1 record into a fresh Event.
func freshV1Decode(t *testing.T, data []byte) []Event {
	t.Helper()
	var out []Event
	for o := len(binMagic); o < len(data); {
		n := int(binary.LittleEndian.Uint32(data[o:]))
		var e Event
		if err := decodeRecord(data[o+4:o+4+n], &e); err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
		o += 4 + n
	}
	return out
}

// checkServed walks a cursor, comparing each event as served — before
// the next Next may overwrite its slot — with want.
func checkServed(t *testing.T, c Cursor, want []Event) {
	t.Helper()
	n := 0
	for ; ; n++ {
		ev, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if n < len(want) && *ev != want[n] {
			t.Fatalf("event %d served as %v, fresh decode %v", n, *ev, want[n])
		}
	}
	if n != len(want) {
		t.Fatalf("served %d events, want %d", n, len(want))
	}
}

func TestInPlaceDecodeClearsStaleFieldsV2(t *testing.T) {
	const perBlock = 4
	evs := richThenSparse(perBlock, 6)
	data := encodeV2(t, evs, perBlock)
	fresh := freshV2Decode(t, data)
	if len(fresh) != len(evs) {
		t.Fatalf("fresh decode has %d events, wrote %d", len(fresh), len(evs))
	}
	for i := range evs {
		if fresh[i] != evs[i] {
			t.Fatalf("event %d: fresh decode %v, wrote %v", i, fresh[i], evs[i])
		}
	}
	checkServed(t, NewFileCursor(bytes.NewReader(data)), fresh)

	// The indexed read path decodes its selected blocks in place too.
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.BlockRecords = perBlock
	writeSessionSegment(t, st, "run", 0, evs)
	var col Collector
	if _, err := st.QuerySession("run", Filter{}, &col); err != nil {
		t.Fatal(err)
	}
	checkServed(t, &SliceCursor{Events: col.Trace.Events}, fresh)
}

func TestInPlaceDecodeClearsStaleFieldsV1(t *testing.T) {
	evs := richThenSparse(2, 12) // rich ROS, rich sched, then two sparse records, repeated
	var buf bytes.Buffer
	if err := WriteBinary(&buf, &Trace{Events: evs}); err != nil {
		t.Fatal(err)
	}
	fresh := freshV1Decode(t, buf.Bytes())
	for i := range evs {
		if fresh[i] != evs[i] {
			t.Fatalf("event %d: fresh decode %v, wrote %v", i, fresh[i], evs[i])
		}
	}
	checkServed(t, NewFileCursor(bytes.NewReader(buf.Bytes())), fresh)
}
