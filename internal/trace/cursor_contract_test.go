package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"github.com/tracesynth/rostracer/internal/sim"
)

// v2RecordEnds returns the body offset just past each record of the
// block frame at data[frameStart:frameEnd]: cutting the body at entry j
// leaves exactly j+1 complete records.
func v2RecordEnds(t *testing.T, data []byte, frameStart, frameEnd int64) []int {
	t.Helper()
	body := data[frameStart+5 : frameEnd]
	count, strs, o, err := decodeBlockHeader(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st decState
	var ev Event
	ends := make([]int, 0, count)
	for i := 0; i < count; i++ {
		if o, err = decodeRecord2(body, o, &st, strs, &ev); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, o)
	}
	return ends
}

// TestFileCursorBytesConsumedPerRecord pins BytesConsumed's block
// granularity on an undamaged v2 segment: after every record it reports
// the end of the block frame holding that record, and after the footer
// the whole segment.
func TestFileCursorBytesConsumedPerRecord(t *testing.T) {
	const block = 64
	evs := tracedEvents(10*block + 17)
	data := encodeV2(t, evs, block)
	blockEnds, _ := v2Layout(t, data)
	if len(blockEnds) != 11 {
		t.Fatalf("fixture has %d blocks, want 11", len(blockEnds))
	}
	fc := NewFileCursor(bytes.NewReader(data))
	for i := range evs {
		ev, ok, err := fc.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if *ev != evs[i] {
			t.Fatalf("record %d: %v, want %v", i, *ev, evs[i])
		}
		if got, want := fc.BytesConsumed(), blockEnds[i/block]; got != want {
			t.Fatalf("record %d: BytesConsumed %d, want block end %d", i, got, want)
		}
	}
	if _, ok, err := fc.Next(); ok || err != nil {
		t.Fatalf("end: ok=%v err=%v", ok, err)
	}
	if fc.BytesConsumed() != int64(len(data)) {
		t.Fatalf("end: BytesConsumed %d, want %d", fc.BytesConsumed(), len(data))
	}
	if n := len(fc.obsIndex); n != len(blockEnds) {
		t.Fatalf("BlockIndex has %d entries, want %d", n, len(blockEnds))
	}
}

// TestFileCursorDamageContract pins what a v2 cursor serves from a
// damaged block: exactly the records before the damage point, then one
// error of the damage's class, with BytesConsumed and BlockIndex
// covering only the complete, undamaged blocks before it.
func TestFileCursorDamageContract(t *testing.T) {
	const block = 16
	evs := tracedEvents(4 * block)
	full := encodeV2(t, evs, block)
	ends, _ := v2Layout(t, full)
	starts := []int64{int64(len(binMagic2)), ends[0], ends[1], ends[2]}

	// Block 2 loses its tail mid-record: the torn frame's 5 complete
	// records are served.
	recEnds := v2RecordEnds(t, full, starts[2], ends[2])
	torn := full[:starts[2]+5+int64(recEnds[4])+1]

	// Block 1's record 7 gets an invalid kind: its 7 predecessors are
	// served.
	recEnds = v2RecordEnds(t, full, starts[1], ends[1])
	badRec := append([]byte(nil), full...)
	badRec[starts[1]+5+int64(recEnds[6])] = 0xff

	// Block 1's frame grows two bytes no record covers: all 16 of its
	// records are served before the damage shows.
	var trailing []byte
	trailing = append(trailing, full[:starts[1]]...)
	trailing = append(trailing, frameBlock)
	trailing = binary.LittleEndian.AppendUint32(trailing, uint32(ends[1]-starts[1]-5+2))
	trailing = append(trailing, full[starts[1]+5:ends[1]]...)
	trailing = append(trailing, 0, 0)
	trailing = append(trailing, full[ends[1]:]...)

	// Block 1's records 9 and 10 swap places: a strict cursor serves 9
	// records, the frame itself being intact.
	swapped := append([]Event(nil), evs...)
	swapped[block+9], swapped[block+10] = swapped[block+10], swapped[block+9]
	unordered := encodeV2(t, swapped, block)
	uEnds, _ := v2Layout(t, unordered)

	for _, tc := range []struct {
		name     string
		data     []byte
		strict   bool
		want     []Event
		class    error
		consumed int64
		blocks   int
	}{
		{"torn-block", torn, false, evs[:2*block+5], ErrTruncated, ends[1], 2},
		{"bad-record", badRec, false, evs[:block+7], ErrBadBlock, ends[0], 1},
		{"trailing-bytes", trailing, false, evs[:2*block], ErrBadBlock, ends[0], 1},
		{"unordered", unordered, true, swapped[:block+10], ErrUnordered, uEnds[1], 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := NewFileCursor(bytes.NewReader(tc.data))
			fc.strict = tc.strict
			got, err := drainCursor(fc)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("served %d records, want %d", len(got), len(tc.want))
			}
			if !errors.Is(err, tc.class) {
				t.Fatalf("err = %v, want %v", err, tc.class)
			}
			if _, _, again := fc.Next(); again == nil {
				t.Fatal("error not sticky")
			}
			if fc.BytesConsumed() != tc.consumed {
				t.Fatalf("BytesConsumed %d, want %d", fc.BytesConsumed(), tc.consumed)
			}
			if n := len(fc.obsIndex); n != tc.blocks {
				t.Fatalf("BlockIndex has %d entries, want %d", n, tc.blocks)
			}
		})
	}
}

// TestStreamSessionAllocsPerSegment bounds what streaming a 60-segment
// v2 session allocates: a fixed per-segment cost (file, read buffer,
// block body, string table, heap slot), independent of how many records
// a block holds. A cursor that decoded whole blocks into Event slots
// would pay defaultBlockRecords Events per segment on top of that.
func TestStreamSessionAllocsPerSegment(t *testing.T) {
	const segments, perSeg = 60, 3 * defaultBlockRecords
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < segments; seg++ {
		evs := tracedEvents(perSeg)
		for i := range evs {
			evs[i].Time += sim.Time(seg * 1_000_000)
		}
		writeSessionSegment(t, s, "run", seg, evs)
	}
	var kc KindCounter
	stream := func() {
		kc = KindCounter{}
		if err := s.StreamSession("run", &kc); err != nil {
			t.Fatal(err)
		}
	}
	stream() // warm the intern table
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream()
	runtime.ReadMemStats(&after)
	if kc.Total() != segments*perSeg {
		t.Fatalf("streamed %d events, want %d", kc.Total(), segments*perSeg)
	}
	perSegment := (after.TotalAlloc - before.TotalAlloc) / segments
	blockSlots := uint64(defaultBlockRecords) * uint64(unsafe.Sizeof(Event{}))
	if perSegment >= blockSlots {
		t.Fatalf("streaming allocates %d B per segment, want under one block of Event slots (%d B)",
			perSegment, blockSlots)
	}
}
