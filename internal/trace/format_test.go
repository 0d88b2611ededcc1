package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// tracedEvents is a (Time, Seq)-sorted fixture shaped like a real drain:
// recurring node/topic names, near-monotone times, a sched interleave —
// the stream v2's delta + table encoding is built for.
func tracedEvents(n int) []Event {
	nodes := []string{"filter_front", "filter_rear", "fusion"}
	topics := []string{"lidar_front/points_raw", "lidar_rear/points_raw", "fused/objects"}
	out := make([]Event, 0, n)
	now := sim.Time(1000)
	for i := 0; i < n; i++ {
		now += sim.Time(3 + i%7)
		var ev Event
		switch i % 5 {
		case 0:
			ev = Event{Kind: KindSubCBStart, PID: uint32(100 + i%3), Node: nodes[i%3]}
		case 1:
			ev = Event{Kind: KindTakeInt, PID: uint32(100 + i%3), CBID: uint64(0xA0 + i%3),
				Topic: topics[i%3], SrcTS: int64(now) - 5}
		case 2:
			ev = Event{Kind: KindDDSWrite, PID: uint32(100 + i%3), Topic: topics[(i+1)%3], SrcTS: int64(now)}
		case 3:
			ev = Event{Kind: KindSchedSwitch, CPU: int32(i % 4), PrevPID: uint32(100 + i%3),
				NextPID: uint32(100 + (i+1)%3), PrevPrio: 5, NextPrio: 9, PrevState: 1}
		case 4:
			ev = Event{Kind: KindSubCBEnd, PID: uint32(100 + i%3), Node: nodes[i%3]}
		}
		ev.Time = now
		ev.Seq = uint64(i + 1)
		out = append(out, ev)
	}
	return out
}

// TestFormatCompatRoundTrip is the cross-version equivalence pin: the
// same events written as v1 and as v2 (several block sizes, including
// blocks larger than the stream) must decode to identical streams, and
// the decoded stream must equal the input.
func TestFormatCompatRoundTrip(t *testing.T) {
	for _, events := range [][]Event{sampleEvents(), tracedEvents(1000), nil, tracedEvents(1)} {
		var v1 bytes.Buffer
		if err := WriteBinary(&v1, &Trace{Events: events}); err != nil {
			t.Fatal(err)
		}
		fromV1, err := decodeAll(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, blockRecords := range []int{1, 4, 0, len(events) + 1} {
			fromV2, err := decodeAll(bytes.NewReader(encodeV2(t, events, blockRecords)))
			if err != nil {
				t.Fatalf("v2(block=%d): %v", blockRecords, err)
			}
			if !reflect.DeepEqual(fromV2.Events, fromV1.Events) {
				t.Fatalf("v2(block=%d) decode diverges from v1: %d vs %d events",
					blockRecords, len(fromV2.Events), len(fromV1.Events))
			}
			if len(events) > 0 && !reflect.DeepEqual(fromV2.Events, events) {
				t.Fatalf("v2(block=%d) decode diverges from input", blockRecords)
			}
		}
	}
}

// TestFormatCompatStore pins store-level equivalence: the same session
// written through a v1 store and a v2 store must stream, load, and
// salvage identically, while the v2 store holds it in at least 3x fewer
// bytes (the compression floor docs/PERFORMANCE.md reports on).
func TestFormatCompatStore(t *testing.T) {
	events := tracedEvents(2000)
	perSeg := len(events) / 4
	stores := map[Format]*Store{}
	sizes := map[Format]int64{}
	streams := map[Format][]Event{}
	for _, format := range []Format{FormatV1, FormatV2} {
		s, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s.Format = format
		s.BlockRecords = 64
		for i := 0; i < 4; i++ {
			writeSessionSegment(t, s, "run", i, events[i*perSeg:(i+1)*perSeg])
		}
		var col Collector
		if err := s.StreamSession("run", &col); err != nil {
			t.Fatal(err)
		}
		var size int64
		names, err := s.segmentNames("run")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			fi, err := os.Stat(filepath.Join(s.dir, name))
			if err != nil {
				t.Fatal(err)
			}
			size += fi.Size()
		}
		stores[format], sizes[format], streams[format] = s, size, col.Trace.Events
	}
	if !reflect.DeepEqual(streams[FormatV1], streams[FormatV2]) {
		t.Fatalf("cross-format StreamSession diverges: %d vs %d events",
			len(streams[FormatV1]), len(streams[FormatV2]))
	}
	if !reflect.DeepEqual(streams[FormatV1], events) {
		t.Fatal("streamed session diverges from input")
	}
	// A plain FileCursor reads a segment of either format through the
	// same path.
	for format, s := range stores {
		tr, err := readSegment(s, "run", 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr.Events, events[2*perSeg:3*perSeg]) {
			t.Fatalf("%s segment read diverges", format)
		}
	}
	ratio := float64(sizes[FormatV1]) / float64(sizes[FormatV2])
	t.Logf("session size: v1 %d bytes, v2 %d bytes (%.1fx)", sizes[FormatV1], sizes[FormatV2], ratio)
	if ratio < 3 {
		t.Fatalf("v2 compression %.2fx below the 3x floor (v1 %d bytes, v2 %d)",
			ratio, sizes[FormatV1], sizes[FormatV2])
	}
}

// TestSegmentWriterFormatKnob pins the constructor contract: the zero
// knob means v2, NewSegmentWriter stays v1 (its WriteBinary
// byte-equivalence pin depends on it), and both magics differ.
func TestSegmentWriterFormatKnob(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSegmentWriterFormat(&buf, 0, 0)
	if sw.format != FormatV2 {
		t.Fatalf("default format = %v, want v2", sw.format)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(binMagic2)) {
		t.Fatalf("v2 writer emitted %q", buf.Bytes())
	}
	buf.Reset()
	sw = NewSegmentWriter(&buf)
	if sw.format != FormatV1 {
		t.Fatalf("NewSegmentWriter format = %v, want v1", sw.format)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(binMagic)) {
		t.Fatalf("v1 writer emitted %q", buf.Bytes())
	}
}

// v2Layout decodes a v2 segment's frame layout for byte-surgery tests:
// the end offset of every block frame, and the footer frame's start.
func v2Layout(t *testing.T, data []byte) (blockEnds []int64, footerStart int64) {
	t.Helper()
	fc := NewFileCursor(bytes.NewReader(data))
	if evs, err := drainCursor(fc); err != nil {
		t.Fatalf("layout walk failed after %d events: %v", len(evs), err)
	}
	for _, bi := range fc.obsIndex {
		blockEnds = append(blockEnds, bi.Offset+5+int64(bi.Len))
	}
	footerStart = int64(len(binMagic2))
	if len(blockEnds) > 0 {
		footerStart = blockEnds[len(blockEnds)-1]
	}
	return blockEnds, footerStart
}

// TestSegmentCrashRecoveryV2 is the v2 twin of TestSegmentCrashRecovery:
// truncate a finished v2 segment at every byte boundary — through every
// block and through the footer — and demand, at each cut: no panic, only
// a strict prefix of the true stream (never a partial record), a clean
// EOF exactly at frame boundaries, ErrBadFooter for cuts inside the
// footer, and salvage agreeing with the plain cursor byte for byte.
func TestSegmentCrashRecoveryV2(t *testing.T) {
	evs := tracedEvents(19)
	full := encodeV2(t, evs, 4) // 5 blocks + footer
	blockEnds, footerStart := v2Layout(t, full)
	if len(blockEnds) != 5 {
		t.Fatalf("fixture has %d blocks, want 5", len(blockEnds))
	}
	clean := map[int64]bool{int64(len(binMagic2)): true, int64(len(full)): true}
	for _, end := range blockEnds {
		clean[end] = true
	}
	// Records fully covered by complete blocks below each cut.
	completeBelow := func(cut int64) int {
		n := 0
		for i, end := range blockEnds {
			if end <= cut {
				n = (i + 1) * 4
			}
		}
		if n > len(evs) {
			n = len(evs)
		}
		return n
	}

	prevK := 0
	for cut := int64(len(binMagic2)); cut <= int64(len(full)); cut++ {
		data := full[:cut]
		got, err := drainCursor(NewFileCursor(bytes.NewReader(data)))
		if len(got) > len(evs) {
			t.Fatalf("cut %d: yielded %d events, stream has %d", cut, len(got), len(evs))
		}
		for i := range got {
			if got[i] != evs[i] {
				t.Fatalf("cut %d: event %d diverges from the stream", cut, i)
			}
		}
		k := len(got)
		if k < prevK {
			t.Fatalf("cut %d: recovered %d events, cut %d recovered %d — not monotone", cut, k, cut-1, prevK)
		}
		prevK = k
		if k < completeBelow(cut) {
			t.Fatalf("cut %d: recovered %d events, %d are in complete blocks", cut, k, completeBelow(cut))
		}
		switch {
		case clean[cut]:
			if err != nil {
				t.Fatalf("cut %d: frame-boundary truncation rejected: %v", cut, err)
			}
		case cut > footerStart:
			if !errors.Is(err, ErrBadFooter) {
				t.Fatalf("cut %d (inside footer): err=%v, want ErrBadFooter", cut, err)
			}
			if k != len(evs) {
				t.Fatalf("cut %d (inside footer): recovered %d of %d events", cut, k, len(evs))
			}
		default:
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d (inside block): err=%v, want ErrTruncated", cut, err)
			}
		}
		// Salvage == plain cursor, byte for byte.
		var salvaged []Event
		rep := SalvageReader(bytes.NewReader(data), SinkFunc(func(e Event) { salvaged = append(salvaged, e) }))
		if !reflect.DeepEqual(salvaged, got) || rep.Damaged != (err != nil) {
			t.Fatalf("cut %d: salvage (%d events, damaged=%v) diverges from cursor (%d events, err=%v)",
				cut, len(salvaged), rep.Damaged, k, err)
		}
		if rep.BytesRecovered > cut || !clean[rep.BytesRecovered] && rep.BytesRecovered != int64(len(binMagic2)) {
			t.Fatalf("cut %d: BytesRecovered %d is not a frame boundary", cut, rep.BytesRecovered)
		}
	}
}

// TestSalvageV2Damage covers the v2 damage classes end to end through
// the store: torn block (truncated), stomped frame tag (corrupt),
// corrupted block body (bad-block, with the block's record prefix
// recovered), corrupted footer (bad-footer, all records recovered), and
// a missing footer (clean crash shape — not damage at all).
func TestSalvageV2Damage(t *testing.T) {
	evs := tracedEvents(32)
	mkStore := func(t *testing.T) (*Store, string) {
		s, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s.BlockRecords = 8 // 4 blocks
		return s, writeSessionSegment(t, s, "d", 0, evs)
	}
	layout := func(t *testing.T, path string) ([]int64, int64, []byte) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ends, footerStart := v2Layout(t, data)
		return ends, footerStart, data
	}

	t.Run("torn-block", func(t *testing.T) {
		s, path := mkStore(t)
		ends, _, _ := layout(t, path)
		if err := os.Truncate(path, ends[1]+7); err != nil { // into block 2's body
			t.Fatal(err)
		}
		var got collectSink
		rep, err := s.SalvageSession("d", &got)
		if err != nil {
			t.Fatal(err)
		}
		seg := rep.Segments[0]
		if seg.Cause != "truncated" || !errors.Is(seg.Err, ErrTruncated) {
			t.Fatalf("cause = %q (%v), want truncated", seg.Cause, seg.Err)
		}
		if seg.Events != 16 || len(got.events) != 16 {
			t.Fatalf("recovered %d events, want the 16 in complete blocks", seg.Events)
		}
		if seg.BytesRecovered != ends[1] || seg.BytesDropped != 7 {
			t.Fatalf("bytes: %+v, want %d recovered / 7 dropped", seg, ends[1])
		}
	})

	t.Run("stomped-tag", func(t *testing.T) {
		s, path := mkStore(t)
		ends, _, _ := layout(t, path)
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, ends[2]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		rep, err := s.SalvageSession("d", nil)
		if err != nil {
			t.Fatal(err)
		}
		seg := rep.Segments[0]
		if seg.Cause != "corrupt" || seg.Events != 24 || seg.BytesRecovered != ends[2] {
			t.Fatalf("report %+v, want corrupt with 24 events", seg)
		}
	})

	t.Run("bad-block-body", func(t *testing.T) {
		s, path := mkStore(t)
		ends, _, data := layout(t, path)
		// Stomp the kind byte of block 2's first record with an invalid
		// kind: the frame is complete, the content is not. Block 1's
		// records survive; block 2 contributes nothing.
		body := data[ends[0]+5 : ends[1]]
		_, _, recStart, err := decodeBlockHeader(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xff}, ends[0]+5+int64(recStart)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		var got collectSink
		rep, err := s.SalvageSession("d", &got)
		if err != nil {
			t.Fatal(err)
		}
		seg := rep.Segments[0]
		if seg.Cause != "bad-block" || !errors.Is(seg.Err, ErrBadBlock) {
			t.Fatalf("cause = %q (%v), want bad-block", seg.Cause, seg.Err)
		}
		if seg.Events != 8 {
			t.Fatalf("recovered %d events, want the 8 in block 1", seg.Events)
		}
		if !reflect.DeepEqual(got.events, evs[:8]) {
			t.Fatal("salvaged events are not the stream's 8-event prefix")
		}
		if seg.BytesRecovered != ends[0] {
			t.Fatalf("BytesRecovered %d, want %d (block 1 only: the damaged frame is not valid bytes)",
				seg.BytesRecovered, ends[0])
		}
	})

	t.Run("bad-footer", func(t *testing.T) {
		s, path := mkStore(t)
		_, footerStart, data := layout(t, path)
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt one byte of the footer body (not the trailer).
		if _, err := f.WriteAt([]byte{data[footerStart+7] ^ 0xff}, footerStart+7); err != nil {
			t.Fatal(err)
		}
		f.Close()
		var got collectSink
		rep, err := s.SalvageSession("d", &got)
		if err != nil {
			t.Fatal(err)
		}
		seg := rep.Segments[0]
		if seg.Cause != "bad-footer" || !errors.Is(seg.Err, ErrBadFooter) {
			t.Fatalf("cause = %q (%v), want bad-footer", seg.Cause, seg.Err)
		}
		if seg.Events != len(evs) || !reflect.DeepEqual(got.events, evs) {
			t.Fatalf("recovered %d events, want all %d (only the index is damaged)", seg.Events, len(evs))
		}
	})

	t.Run("missing-footer", func(t *testing.T) {
		s, path := mkStore(t)
		_, footerStart, _ := layout(t, path)
		if err := os.Truncate(path, footerStart); err != nil {
			t.Fatal(err)
		}
		// A crashed writer's shape: strict streaming accepts it.
		var got collectSink
		if err := s.StreamSession("d", &got); err != nil {
			t.Fatalf("footer-less segment rejected: %v", err)
		}
		if !reflect.DeepEqual(got.events, evs) {
			t.Fatalf("streamed %d events, want all %d", len(got.events), len(evs))
		}
		fsck, err := s.Fsck()
		if err != nil {
			t.Fatal(err)
		}
		if !fsck.Clean() {
			t.Fatalf("fsck flags a clean crash shape: %s", fsck)
		}
	})
}

// TestFsckClassifiesV2Damage checks fsck surfaces the v2-specific
// classes alongside the v1 ones.
func TestFsckClassifiesV2Damage(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.BlockRecords = 8
	evs := tracedEvents(32)
	writeSessionSegment(t, s, "v", 0, evs) // clean
	p1 := writeSessionSegment(t, s, "v", 1, evs)
	p2 := writeSessionSegment(t, s, "v", 2, evs)
	ends, _, _ := func() ([]int64, int64, []byte) {
		data, err := os.ReadFile(p1)
		if err != nil {
			t.Fatal(err)
		}
		e, fs := v2Layout(t, data)
		return e, fs, data
	}()
	if err := os.Truncate(p1, ends[2]+3); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-footerTrailerLen-2] ^= 0xff // corrupt footer body tail
	if err := os.WriteFile(p2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged() != 2 {
		t.Fatalf("fsck damaged = %d, want 2\n%s", rep.Damaged(), rep)
	}
	causes := map[string]string{}
	for _, sess := range rep.Sessions {
		for _, seg := range sess.Segments {
			if seg.Damaged {
				causes[seg.Name] = seg.Cause
			}
		}
	}
	if causes[filepath.Base(p1)] != "truncated" || causes[filepath.Base(p2)] != "bad-footer" {
		t.Fatalf("causes = %v, want truncated + bad-footer", causes)
	}
	if !strings.Contains(rep.String(), "[bad-footer]") {
		t.Fatalf("fsck text missing class:\n%s", rep)
	}
}

// queryStore builds a 4-segment v2 session over tracedEvents(2000).
func queryStore(t *testing.T, format Format) (*Store, []Event) {
	t.Helper()
	events := tracedEvents(2000)
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Format = format
	s.BlockRecords = 32
	perSeg := len(events) / 4
	for i := 0; i < 4; i++ {
		writeSessionSegment(t, s, "q", i, events[i*perSeg:(i+1)*perSeg])
	}
	return s, events
}

// applyFilter is the reference filter semantics QuerySession must match.
func applyFilter(events []Event, f Filter) []Event {
	cf := compileFilter(f)
	var out []Event
	for i := range events {
		if cf.match(&events[i]) {
			out = append(out, events[i])
		}
	}
	return out
}

// TestQuerySessionMatchesFilteredStream pins QuerySession to the
// reference semantics on both formats across filter shapes: time
// windows, kind sets, node restriction, combinations, and the empty
// filter (which must equal StreamSession exactly).
func TestQuerySessionMatchesFilteredStream(t *testing.T) {
	filters := []Filter{
		{},
		{T0: 2000, T1: 3000},
		{T1: 1500},
		{T0: 4000},
		{Kinds: []Kind{KindSchedSwitch}},
		{Kinds: []Kind{KindTakeInt, KindDDSWrite}, T0: 2500, T1: 5000},
		{Node: "fusion"},
		{Node: "fusion", T0: 3000, T1: 3500, Kinds: []Kind{KindSubCBStart, KindSubCBEnd}},
		{Node: "no_such_node"},
		{T0: 1 << 40},
	}
	for _, format := range []Format{FormatV1, FormatV2} {
		s, events := queryStore(t, format)
		for i, f := range filters {
			var got collectSink
			stats, err := s.QuerySession("q", f, &got)
			if err != nil {
				t.Fatalf("%s filter %d: %v", format, i, err)
			}
			want := applyFilter(events, f)
			if !reflect.DeepEqual(got.events, want) {
				t.Fatalf("%s filter %d (%+v): got %d events, want %d",
					format, i, f, len(got.events), len(want))
			}
			if stats.RecordsMatched != len(want) {
				t.Fatalf("%s filter %d: stats matched %d, want %d", format, i, stats.RecordsMatched, len(want))
			}
			if format == FormatV1 && stats.Scans != 4 {
				t.Fatalf("v1 filter %d: %d scans, want 4", i, stats.Scans)
			}
		}
	}
}

// TestQuerySessionFineIndexFilters queries a five-segment v2 session
// cut into 32-record blocks, so every filter selects many blocks across
// several segments: events and RecordsMatched must match the reference
// filter, the block accounting must balance, and a repeated query must
// return the same events and stats.
func TestQuerySessionFineIndexFilters(t *testing.T) {
	segs := sessionEvents(17, 5, 1200)
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Format = FormatV2
	st.BlockRecords = 32
	var events []Event
	for i, evs := range segs {
		writeSessionSegment(t, st, "run", i, evs)
		events = append(events, evs...)
	}
	end := events[len(events)-1].Time
	filters := []Filter{
		{},
		{T0: end / 3, T1: 2 * end / 3},
		{Kinds: []Kind{KindSchedSwitch}},
		{T0: end / 2, Kinds: []Kind{KindTakeInt, KindSubCBEnd}},
		{Node: "no-such-node"},
	}
	for i, f := range filters {
		t.Run(fmt.Sprintf("filter%d", i), func(t *testing.T) {
			var got collectSink
			stats, err := st.QuerySession("run", f, &got)
			if err != nil {
				t.Fatal(err)
			}
			want := applyFilter(events, f)
			if !reflect.DeepEqual(got.events, want) {
				t.Fatalf("got %d events, want %d", len(got.events), len(want))
			}
			if stats.RecordsMatched != len(want) || stats.Segments != len(segs) {
				t.Fatalf("stats = %+v, want %d matched over %d segments", stats, len(want), len(segs))
			}
			if stats.BlocksRead+stats.BlocksSkipped != stats.BlocksTotal {
				t.Fatalf("block accounting broken: %+v", stats)
			}
			var again collectSink
			againStats, err := st.QuerySession("run", f, &again)
			if err != nil {
				t.Fatal(err)
			}
			if againStats != stats || !reflect.DeepEqual(again.events, got.events) {
				t.Fatalf("repeated query differs: %+v vs %+v", againStats, stats)
			}
		})
	}
}

// TestQuerySessionSkipsBlocks proves the indexed read does sublinear
// work: a narrow time window must decode only the overlapping blocks,
// a non-occurring kind and a non-occurring node must decode nothing,
// and stats must account for every block.
func TestQuerySessionSkipsBlocks(t *testing.T) {
	s, events := queryStore(t, FormatV2)
	var full collectSink
	fullStats, err := s.QuerySession("q", Filter{}, &full)
	if err != nil {
		t.Fatal(err)
	}
	if fullStats.BlocksRead != fullStats.BlocksTotal || fullStats.BlocksSkipped != 0 {
		t.Fatalf("empty filter skipped blocks: %+v", fullStats)
	}
	if fullStats.RecordsDecoded != len(events) {
		t.Fatalf("full query decoded %d records, want %d", fullStats.RecordsDecoded, len(events))
	}

	mid := events[len(events)/2].Time
	narrow := Filter{T0: mid, T1: mid + 50}
	var got collectSink
	stats, err := s.QuerySession("q", narrow, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.events, applyFilter(events, narrow)) {
		t.Fatal("narrow window result wrong")
	}
	if stats.BlocksRead+stats.BlocksSkipped != stats.BlocksTotal {
		t.Fatalf("block accounting broken: %+v", stats)
	}
	if stats.BlocksRead*4 > stats.BlocksTotal {
		t.Fatalf("narrow window read %d of %d blocks — index not skipping", stats.BlocksRead, stats.BlocksTotal)
	}
	if stats.RecordsDecoded >= len(events)/4 {
		t.Fatalf("narrow window decoded %d records — not sublinear", stats.RecordsDecoded)
	}

	// A kind that never occurs: the kind bitmap excludes every block.
	stats, err = s.QuerySession("q", Filter{Kinds: []Kind{KindCreateNode}}, &collectSink{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksRead != 0 || stats.RecordsDecoded != 0 {
		t.Fatalf("absent kind still decoded: %+v", stats)
	}

	// A node that never occurs: the per-block string tables exclude every
	// block without decoding records.
	stats, err = s.QuerySession("q", Filter{Node: "no_such_node"}, &collectSink{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsDecoded != 0 {
		t.Fatalf("absent node still decoded records: %+v", stats)
	}
}

// TestQuerySessionRebuildsMissingFooter: a crashed-writer segment (no
// footer) must still be queryable — its index is rebuilt by one scan —
// and mixed v1/v2 sessions must work, since each segment picks its own
// path.
func TestQuerySessionMixedAndRebuilt(t *testing.T) {
	events := tracedEvents(600)
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.BlockRecords = 32
	s.Format = FormatV1
	writeSessionSegment(t, s, "m", 0, events[:200])
	s.Format = FormatV2
	writeSessionSegment(t, s, "m", 1, events[200:400])
	p2 := writeSessionSegment(t, s, "m", 2, events[400:])
	// Decapitate segment 2's footer: crash shape.
	data, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	_, footerStart := v2Layout(t, data)
	if err := os.Truncate(p2, footerStart); err != nil {
		t.Fatal(err)
	}

	f := Filter{T0: events[100].Time, T1: events[500].Time}
	var got collectSink
	stats, err := s.QuerySession("m", f, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.events, applyFilter(events, f)) {
		t.Fatalf("mixed-session query wrong: %d events", len(got.events))
	}
	if stats.Scans != 2 || stats.Segments != 3 {
		t.Fatalf("stats = %+v, want a v1 and a footerless v2 scan over 3 segments", stats)
	}
}

// TestQuerySessionDamageFails pins the strictness contract: QuerySession
// fails on damage exactly like StreamSession (salvage is the lenient
// path), and names the segment either way. What StreamSession delivers
// before the error is a prefix of the undamaged session's stream.
func TestQuerySessionDamageFails(t *testing.T) {
	s, events := queryStore(t, FormatV2)
	names, err := s.segmentNames("q")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.dir, names[1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, footerStart := v2Layout(t, data)
	if err := os.Truncate(path, footerStart-5); err != nil { // torn last block
		t.Fatal(err)
	}
	_, qerr := s.QuerySession("q", Filter{}, &collectSink{})
	var streamed collectSink
	serr := s.StreamSession("q", &streamed)
	if qerr == nil || serr == nil {
		t.Fatalf("damage accepted: query=%v stream=%v", qerr, serr)
	}
	for _, err := range []error{qerr, serr} {
		if !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), names[1]) {
			t.Fatalf("error = %v, want ErrTruncated naming %s", err, names[1])
		}
	}
	if n := len(streamed.events); n == 0 || n >= len(events) || !reflect.DeepEqual(streamed.events, events[:n]) {
		t.Fatalf("stream delivered %d events before the error, want a proper prefix of the %d clean ones", n, len(events))
	}
}

// TestQuerySessionRejectsUnordered: a v2 segment whose first ten
// records run backwards in Seq at one Time fails QuerySession with
// ErrUnordered naming the segment, as it fails StreamSession — also when
// the filter matches none of the unordered records, since every record
// the query decodes is checked. A block the index skips is not decoded
// and so not checked.
func TestQuerySessionRejectsUnordered(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Format = FormatV2
	evs := make([]Event, 20)
	for i := range evs {
		evs[i] = Event{Time: sim.Time(100 + 10*max(i-9, 0)), Seq: uint64(i), Kind: KindSchedSwitch, PID: 7}
		if i < 10 {
			evs[i].Seq = uint64(9 - i)
		}
	}
	name := filepath.Base(writeSessionSegment(t, s, "u", 0, evs))

	if err := s.StreamSession("u", &collectSink{}); !errors.Is(err, ErrUnordered) {
		t.Fatalf("StreamSession err = %v, want ErrUnordered", err)
	}
	for _, f := range []Filter{{Kinds: []Kind{KindSchedSwitch}}, {T0: 150}} {
		var got collectSink
		_, err := s.QuerySession("u", f, &got)
		if !errors.Is(err, ErrUnordered) || !strings.Contains(err.Error(), name) {
			t.Fatalf("filter %+v: err = %v after %d events, want ErrUnordered naming %s", f, err, len(got.events), name)
		}
	}
	stats, err := s.QuerySession("u", Filter{Kinds: []Kind{KindDDSWrite}}, &collectSink{})
	if err != nil || stats.BlocksRead != 0 {
		t.Fatalf("skipped block: err = %v, stats %+v; want no error and no block read", err, stats)
	}
}

// TestParseKind pins the accepted spellings of the CLI kind syntax.
func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"P6:rmw_take_int", KindTakeInt, true},
		{"P6", KindTakeInt, true},
		{"rmw_take_int", KindTakeInt, true},
		{"sched_switch", KindSchedSwitch, true},
		{"execute_timer:entry", KindTimerCBStart, true},
		{"P16", KindDDSWrite, true},
		{"invalid", KindInvalid, false},
		{"", KindInvalid, false},
		{"P99", KindInvalid, false},
	}
	for _, c := range cases {
		got, ok := ParseKind(c.in)
		if got != c.want || ok != c.ok {
			t.Fatalf("ParseKind(%q) = %v/%v, want %v/%v", c.in, got, ok, c.want, c.ok)
		}
	}
	// Every kind's canonical String() must parse back to itself.
	for k := KindInvalid + 1; k < numKinds; k++ {
		if got, ok := ParseKind(k.String()); !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v/%v, want %v", k.String(), got, ok, k)
		}
	}
}
