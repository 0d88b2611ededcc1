package tracers

import (
	"encoding/binary"
	"testing"

	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/trace"
)

// perfRecord lays out a probe record: u64 fields, then an optional
// NUL-padded 64-byte string field (the full layout).
func perfRecord(str string, fields ...uint64) []byte {
	var b []byte
	for _, f := range fields {
		b = binary.LittleEndian.AppendUint64(b, f)
	}
	if str != "" {
		s := make([]byte, strFieldSize)
		copy(s, str)
		b = append(b, s...)
	}
	return b
}

// TestRecordCursorClearsStaleFields drains sched, plain and full-size
// records (plus the id, ret and wakeup layouts) in an order where each
// leaves out fields the one before it set, and demands every event the
// cursor serves out of its reused slot equal DecodeRecord into a fresh
// Event.
func TestRecordCursorClearsStaleFields(t *testing.T) {
	k := func(kind trace.Kind) uint64 { return uint64(kind) }
	records := [][]byte{
		perfRecord("/points_raw", k(trace.KindTakeInt), 7, 100, 0xabc, 90, 1),  // full: PID, CBID, SrcTS, Ret, Topic
		perfRecord("", k(trace.KindSchedSwitch), 3, 101, 7, 120, 1, 9, 110),    // sched: none of those
		perfRecord("", k(trace.KindSubCBStart), 8, 102),                        // plain: no sched payload
		perfRecord("lidar_node", k(trace.KindCreateNode), 8, 103, 0, 0, 0),     // full: Node
		perfRecord("rq/svcRequest", k(trace.KindDDSWrite), 8, 104, 0, 104, 0),  // full: Topic, no Node
		perfRecord("", k(trace.KindSchedWakeup), 9, 105, 120),                  // wakeup: NextPID, NextPrio
		perfRecord("", k(trace.KindTimerCall), 7, 106, 0xdef),                  // id: CBID
		perfRecord("", k(trace.KindTakeTypeErased), 7, 107, 1),                 // ret: Ret
		perfRecord("", k(trace.KindSubCBEnd), 8, 108),                          // plain again
		perfRecord("", k(trace.KindSchedSwitch), 0, 109, 8, 120, 0, 7, 110),    // sched after plain
		perfRecord("/points_raw", k(trace.KindTakeInt), 7, 110, 0xabc, 100, 0), // full after sched
		perfRecord("", k(trace.KindTimerCBStart), 7, 111),                      // plain after full
	}
	// The same emissions into two buffers: one drained through the
	// reused-slot cursor, the other into retained records for the oracle.
	cursorPB, refPB := ebpf.NewPerfBuffer("cursor", 0, new(uint64)), ebpf.NewPerfBuffer("ref", 0, new(uint64))
	for i, r := range records {
		cursorPB.Emit(0, int64(100+i), r)
		refPB.Emit(0, int64(100+i), r)
	}
	ref := ringRecords(refPB, 0)
	var rc recordCursor
	cursorPB.DrainCursorInto(&rc.recs, 0)
	defer rc.recs.Release()
	n := 0
	for ; ; n++ {
		ev, ok, err := rc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		var fresh trace.Event
		if err := DecodeRecord(ref[n], &fresh); err != nil {
			t.Fatal(err)
		}
		if *ev != fresh {
			t.Fatalf("record %d served as %v, fresh decode %v", n, *ev, fresh)
		}
	}
	if n != len(records) {
		t.Fatalf("served %d events, emitted %d", n, len(records))
	}
}
