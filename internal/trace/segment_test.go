package trace

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/tracesynth/rostracer/internal/faultinject"
	"github.com/tracesynth/rostracer/internal/sim"
)

// loadSession collects a whole session through StreamSession.
func loadSession(t *testing.T, st *Store, session string) *Trace {
	t.Helper()
	var col Collector
	if err := st.StreamSession(session, &col); err != nil {
		t.Fatal(err)
	}
	return &col.Trace
}

// decodeAll decodes a whole segment through a FileCursor, all or
// nothing: a decode error discards the events read so far (drainCursor
// keeps the valid prefix of a damaged segment).
func decodeAll(r io.Reader) (*Trace, error) {
	evs, err := drainCursor(NewFileCursor(r))
	if err != nil {
		return nil, err
	}
	return &Trace{Events: evs}, nil
}

// sortByTime stably orders events by (Time, Seq), the order a merge of
// their sorted partitions yields.
func sortByTime(evs []Event) {
	slices.SortStableFunc(evs, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Seq, b.Seq))
	})
}

// readSegment decodes one segment file of either format with decodeAll.
// Unlike the session read paths it is non-strict: a single segment read
// in isolation has no merge to corrupt, so any record order round-trips.
func readSegment(st *Store, session string, segment int) (*Trace, error) {
	f, err := os.Open(st.segPath(session, segment))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeAll(f)
}

// writeSessionSegments saves the given per-segment event slices as one
// store session and returns the store.
func writeSessionSegments(t *testing.T, session string, segs [][]Event) *Store {
	t.Helper()
	return writeSessionSegmentsFormat(t, session, segs, 0)
}

// writeSessionSegmentsFormat is writeSessionSegments with an explicit
// store format (0 = store default). Byte-surgery tests that do v1
// record-boundary arithmetic pin FormatV1.
func writeSessionSegmentsFormat(t *testing.T, session string, segs [][]Event, format Format) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Format = format
	for i, evs := range segs {
		sw, err := st.WriteSegment(session, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			sw.Observe(e)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestSegmentWriterMatchesWriteBinary pins the streaming encoder to the
// batch one byte for byte: observing events one at a time must produce
// exactly the bytes WriteBinary produces for the whole trace.
func TestSegmentWriterMatchesWriteBinary(t *testing.T) {
	evs := sampleEvents()

	var batch bytes.Buffer
	if err := WriteBinary(&batch, &Trace{Events: evs}); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	sw := NewSegmentWriter(&streamed)
	for _, e := range evs {
		sw.Observe(e)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.n != len(evs) {
		t.Fatalf("count = %d, want %d", sw.n, len(evs))
	}
	if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
		t.Fatalf("streamed encoding differs from WriteBinary: %d vs %d bytes",
			streamed.Len(), batch.Len())
	}
}

// TestSegmentWriterStickyError checks an unencodable event stops the
// stream and surfaces from Err and Close, and that later events are not
// written.
func TestSegmentWriterStickyError(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf)
	sw.Observe(Event{Time: 1, Seq: 1, Kind: KindSubCBStart})
	sw.Observe(Event{Time: 2, Seq: 2, Kind: KindDDSWrite, Topic: strings.Repeat("x", 0x10000)})
	sw.Observe(Event{Time: 3, Seq: 3, Kind: KindSubCBEnd})
	if sw.Err() == nil {
		t.Fatal("oversized string field accepted")
	}
	if err := sw.Close(); err == nil {
		t.Fatal("Close did not report the encode error")
	}
	if sw.n != 1 {
		t.Fatalf("count = %d after sticky error, want 1", sw.n)
	}
}

// TestSegmentWriterDiskFault checks that a disk filling up mid-segment
// surfaces from Err and Close with its classification intact, in both
// formats, so the degradation-aware writer can tell ENOSPC from an
// encode error.
func TestSegmentWriterDiskFault(t *testing.T) {
	evs := sessionEvents(29, 1, 600)[0]
	for _, format := range []Format{FormatV1, FormatV2} {
		t.Run(format.String(), func(t *testing.T) {
			var buf bytes.Buffer
			fw := faultinject.NewWriter(&buf, faultinject.WriteFault{Kind: faultinject.WriteFailAfter, N: 2000})
			sw := NewSegmentWriterFormat(fw, format, 32)
			for _, e := range evs {
				sw.Observe(e)
			}
			err := sw.Close()
			if !errors.Is(err, faultinject.ErrDiskFull) {
				t.Fatalf("Close = %v, want ErrDiskFull", err)
			}
			if !errors.Is(sw.Err(), faultinject.ErrDiskFull) {
				t.Fatalf("Err = %v, want ErrDiskFull", sw.Err())
			}
			if buf.Len() != 2000 {
				t.Fatalf("%d bytes reached the disk, want the 2000 it accepted", buf.Len())
			}
		})
	}
}

// TestSessionNamePrefixCollision checks that a session whose name
// extends another's ("run-b" after "run") stays out of the shorter
// session on every read path: the stream, the indexed query, salvage,
// and fsck.
func TestSessionNamePrefixCollision(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := Event{Time: 1, Seq: 1, Kind: KindSubCBStart, Node: "run"}
	writeSessionSegment(t, st, "run", 0, []Event{run})
	writeSessionSegment(t, st, "run-b", 0, []Event{{Time: 2, Seq: 2, Kind: KindSubCBStart, Node: "run-b"}})
	writeSessionSegment(t, st, "run-b", 1, []Event{{Time: 3, Seq: 3, Kind: KindSubCBEnd, Node: "run-b"}})

	sessions, err := st.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sessions, []string{"run", "run-b"}) {
		t.Fatalf("sessions = %v, want [run run-b]", sessions)
	}
	if loaded := loadSession(t, st, "run"); !reflect.DeepEqual(loaded.Events, []Event{run}) {
		t.Fatalf("StreamSession(run) = %v, want only run's event", loaded.Events)
	}
	var got collectSink
	qs, err := st.QuerySession("run", Filter{}, &got)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Segments != 1 || len(got.events) != 1 {
		t.Fatalf("QuerySession(run) read %d segments, %d events; want 1, 1", qs.Segments, len(got.events))
	}
	rep, err := st.SalvageSession("run", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) != 1 || rep.Segments[0].Name != "run-0000.rtrc" {
		t.Fatalf("salvage segments = %+v, want only run-0000.rtrc", rep.Segments)
	}
	fsck, err := st.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range fsck.Sessions {
		want := map[string]int{"run": 1, "run-b": 2}[sr.Session]
		if len(sr.Segments) != want {
			t.Fatalf("fsck session %s has %d segments, want %d", sr.Session, len(sr.Segments), want)
		}
	}
}

// TestSegmentWriterObserveAfterClose checks that writing to a closed
// writer surfaces an error instead of silently buffering into a flushed
// (and possibly closed) destination.
func TestSegmentWriterObserveAfterClose(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf)
	sw.Observe(Event{Time: 1, Seq: 1, Kind: KindSubCBStart})
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sw.Observe(Event{Time: 2, Seq: 2, Kind: KindSubCBEnd})
	if sw.Err() == nil {
		t.Fatal("Observe after Close reported no error")
	}
	if sw.n != 1 {
		t.Fatalf("count = %d after closed write, want 1", sw.n)
	}
}

// TestStreamSessionRejectsUnsortedSegment checks the strict store
// cursors fail loudly on a segment file whose records are out of
// (Time, Seq) order — written behind the store's back, since the drain
// only ever writes sorted segments — instead of silently feeding a
// misordered stream to Algorithm 2.
func TestStreamSessionRejectsUnsortedSegment(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(st.dir, "run-0000.rtrc"))
	if err != nil {
		t.Fatal(err)
	}
	unsorted := &Trace{Events: []Event{
		{Time: 30, Seq: 3, Kind: KindSubCBEnd, PID: 1},
		{Time: 10, Seq: 1, Kind: KindSubCBStart, PID: 1},
	}}
	if err := WriteBinary(f, unsorted); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var col Collector
	err = st.StreamSession("run", &col)
	if err == nil {
		t.Fatal("out-of-order segment streamed without error")
	}
	if !strings.Contains(err.Error(), "order") || !strings.Contains(err.Error(), "run-0000.rtrc") {
		t.Fatalf("unexpected error for out-of-order segment: %v", err)
	}
	// The plain codec keeps accepting the same bytes: ordering is a
	// store contract, not a codec one.
	if _, err := readSegment(st, "run", 0); err != nil {
		t.Fatalf("FileCursor rejected an unsorted (but well-formed) trace: %v", err)
	}
}

// drainCursor pulls a cursor dry, returning the yielded events and the
// terminating error (nil at clean EOF).
func drainCursor(c Cursor) ([]Event, error) {
	var evs []Event
	for {
		ev, ok, err := c.Next()
		if err != nil {
			return evs, err
		}
		if !ok {
			return evs, nil
		}
		evs = append(evs, *ev)
	}
}

// sessionEvents builds a deterministic multi-segment session: segments
// partition one globally (Time, Seq)-ordered stream round-robin with
// random run lengths, the shape successive periodic drains produce.
func sessionEvents(seed int64, nSegs, total int) [][]Event {
	rng := rand.New(rand.NewSource(seed))
	segs := make([][]Event, nSegs)
	now := int64(0)
	topics := []string{"lidar_front/points_raw", "lidar_rear/points_raw", "rq/sv3Request"}
	for i := 0; i < total; i++ {
		if rng.Intn(3) == 0 {
			now += int64(rng.Intn(40))
		}
		var ev Event
		switch i % 4 {
		case 0:
			ev = Event{Kind: KindSubCBStart, PID: uint32(100 + i%3)}
		case 1:
			ev = Event{Kind: KindTakeInt, PID: uint32(100 + i%3), CBID: uint64(i),
				Topic: topics[i%len(topics)], SrcTS: now - 5}
		case 2:
			ev = Event{Kind: KindSchedSwitch, CPU: int32(i % 4), PrevPID: uint32(100 + i%3),
				NextPID: uint32(100 + (i+1)%3), PrevPrio: 5, NextPrio: 9}
		case 3:
			ev = Event{Kind: KindSubCBEnd, PID: uint32(100 + i%3)}
		}
		ev.Time = sim.Time(now)
		ev.Seq = uint64(i + 1)
		seg := (i * nSegs) / total // contiguous runs per segment, like periodic drains
		segs[seg] = append(segs[seg], ev)
	}
	return segs
}

// TestStoreStreamSessionMatchesBatchMerge is the store-level equivalence
// pin: StreamSession into a Collector must reproduce, event for event,
// what the historical batch path produced — read every segment, then
// stable-sort the concatenation.
func TestStoreStreamSessionMatchesBatchMerge(t *testing.T) {
	segs := sessionEvents(7, 5, 400)
	st := writeSessionSegments(t, "run1", segs)

	// Historical batch path, reconstructed inline.
	var traces []*Trace
	for i := range segs {
		tr, err := readSegment(st, "run1", i)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	want := referenceMerge(traces...)

	var col Collector
	if err := st.StreamSession("run1", &col); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(col.Trace.Events, want.Events) {
		t.Fatalf("StreamSession differs from batch merge: %d vs %d events",
			len(col.Trace.Events), len(want.Events))
	}
}

// TestStreamSessionMissing preserves the no-segments error contract.
func TestStreamSessionMissing(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var col Collector
	if err := st.StreamSession("nope", &col); err == nil {
		t.Fatal("missing session streamed")
	}
	if _, err := st.SessionCursors("nope"); err == nil {
		t.Fatal("missing session opened")
	}
}

// TestSegmentCrashRecovery simulates a SegmentWriter killed mid-write by
// truncating a finished segment at every byte boundary of its last
// record. FileCursor must yield every complete record and then either
// end cleanly (truncation at the record boundary) or fail — and no
// partial-record event may ever reach a sink.
func TestSegmentCrashRecovery(t *testing.T) {
	// A (Time, Seq)-sorted fixture, as every real drain writes: the
	// session-level assertion below must fail on the truncation, not on
	// the strict order check.
	evs := sampleEvents()
	sortByTime(evs)
	// v1 pinned: the sweep below does v1 record-boundary arithmetic
	// (WriteBinary prefixes). TestSegmentCrashRecoveryV2 is the v2 twin.
	st := writeSessionSegmentsFormat(t, "run1", [][]Event{evs}, FormatV1)
	path := filepath.Join(st.dir, "run1-0000.rtrc")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Find where the last record starts: re-encode everything but the
	// last event.
	var head bytes.Buffer
	if err := WriteBinary(&head, &Trace{Events: evs[:len(evs)-1]}); err != nil {
		t.Fatal(err)
	}
	lastStart := head.Len()
	want := evs[:len(evs)-1]

	for cut := lastStart; cut < len(full); cut++ {
		got, err := drainCursor(NewFileCursor(bytes.NewReader(full[:cut])))
		if cut == lastStart {
			// Killed exactly between records: a clean, shorter segment.
			if err != nil {
				t.Fatalf("cut %d: boundary truncation rejected: %v", cut, err)
			}
		} else if err == nil {
			t.Fatalf("cut %d: mid-record truncation accepted", cut)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: recovered %d events, want the %d complete ones", cut, len(got), len(want))
		}
	}

	// The whole-session path rejects the damaged segment too, naming it.
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var col Collector
	err = st.StreamSession("run1", &col)
	if err == nil {
		t.Fatal("truncated segment streamed without error")
	}
	if !strings.Contains(err.Error(), "run1-0000.rtrc") || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("error does not name the damaged segment and the truncation: %v", err)
	}
}

// TestStreamSessionPeakBuffering asserts the streaming read path's
// memory is independent of session length: allocations for a 20x larger
// session must stay within a small constant factor (they are O(segment
// cursors), not O(events)).
func TestStreamSessionPeakBuffering(t *testing.T) {
	drainAllocs := func(total int) float64 {
		st := writeSessionSegments(t, "s", sessionEvents(11, 4, total))
		var sink SinkFunc = func(Event) {}
		return testing.AllocsPerRun(5, func() {
			if err := st.StreamSession("s", sink); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := drainAllocs(150)
	large := drainAllocs(150 * 20)
	if large > small*2 {
		t.Fatalf("allocations scale with session size: %v for 150 events, %v for 3000", small, large)
	}
}

// formats lists the on-disk formats every format-sensitive test covers.
var formats = []Format{FormatV1, FormatV2}

// concatSegments joins per-segment slices built by sessionEvents back
// into the one globally ordered stream they partition.
func concatSegments(segs [][]Event) []Event {
	var out []Event
	for _, seg := range segs {
		out = append(out, seg...)
	}
	return out
}

// TestStreamSessionRoundTripsFormats checks that a many-segment session
// streams back as exactly the ordered stream it was cut from, in both
// formats.
func TestStreamSessionRoundTripsFormats(t *testing.T) {
	segs := sessionEvents(11, 6, 700)
	want := concatSegments(segs)
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			st := writeSessionSegmentsFormat(t, "run", segs, format)
			var col Collector
			if err := st.StreamSession("run", &col); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(col.Trace.Events, want) {
				t.Fatalf("StreamSession returned %d events, want the %d written", len(col.Trace.Events), len(want))
			}
		})
	}
}

// TestStreamSessionDamagedSegment tears the tail off one segment of a
// session: StreamSession must deliver every event of the segments before
// it, then a prefix of the damaged one, and fail with ErrTruncated
// naming that segment.
func TestStreamSessionDamagedSegment(t *testing.T) {
	segs := sessionEvents(13, 4, 400)
	want := concatSegments(segs)
	before := len(segs[0]) + len(segs[1])
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			st := writeSessionSegmentsFormat(t, "run", segs, format)
			name := filepath.Join(st.dir, "run-0002.rtrc")
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			var col Collector
			err = st.StreamSession("run", &col)
			if !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "run-0002.rtrc") {
				t.Fatalf("error = %v, want ErrTruncated naming run-0002.rtrc", err)
			}
			got := col.Trace.Events
			if n := len(got); n < before || n >= before+len(segs[2]) || !reflect.DeepEqual(got, want[:n]) {
				t.Fatalf("delivered %d events, want a prefix ending inside segment 2 (events %d..%d)",
					n, before, before+len(segs[2]))
			}
		})
	}
}

// TestSegmentWriterFlushKeepsLayout checks the Flush contract: flushing
// mid-stream, v2 mid-block included, writes exactly the bytes an
// unflushed writer writes.
func TestSegmentWriterFlushKeepsLayout(t *testing.T) {
	evs := sessionEvents(19, 1, 900)[0]
	write := func(format Format, flushEvery int) []byte {
		var buf bytes.Buffer
		sw := NewSegmentWriterFormat(&buf, format, 64)
		for i, e := range evs {
			sw.Observe(e)
			if flushEvery > 0 && i%flushEvery == 0 {
				if err := sw.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if sw.n != len(evs) {
			t.Fatalf("count = %d, want %d", sw.n, len(evs))
		}
		return buf.Bytes()
	}
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			plain, flushed := write(format, 0), write(format, 97)
			if !bytes.Equal(flushed, plain) {
				t.Fatalf("flushed segment differs: %d vs %d bytes", len(flushed), len(plain))
			}
		})
	}
}

// TestStoreWritesAreReproducible writes the same session into two
// stores: every segment file must be byte-identical, footer index
// included, so the encoders carry no hidden order-dependent state.
func TestStoreWritesAreReproducible(t *testing.T) {
	segs := sessionEvents(23, 3, 600)
	write := func(format Format) *Store {
		st, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		st.Format = format
		st.BlockRecords = 48
		for i, evs := range segs {
			writeSessionSegment(t, st, "run", i, evs)
		}
		return st
	}
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			a, b := write(format), write(format)
			for i := range segs {
				name := fmt.Sprintf("run-%04d.rtrc", i)
				da, err := os.ReadFile(filepath.Join(a.dir, name))
				if err != nil {
					t.Fatal(err)
				}
				db, err := os.ReadFile(filepath.Join(b.dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(da, db) {
					t.Fatalf("%s differs between two writes: %d vs %d bytes", name, len(da), len(db))
				}
			}
		})
	}
}

// TestSegmentWritersConcurrent runs one writer per goroutine, the shape
// of several sessions recorded at once, under the race detector. One
// writer's disk fills up; it alone reports an error, and every other
// segment decodes back to exactly its input.
func TestSegmentWritersConcurrent(t *testing.T) {
	segs := sessionEvents(31, 8, 1600)
	const faulty = 3
	bufs := make([]bytes.Buffer, len(segs))
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	for i, evs := range segs {
		wg.Add(1)
		go func(i int, evs []Event) {
			defer wg.Done()
			var w io.Writer = &bufs[i]
			if i == faulty {
				w = faultinject.NewWriter(w, faultinject.WriteFault{Kind: faultinject.WriteFailAfter, N: 500})
			}
			sw := NewSegmentWriterFormat(w, FormatV2, 16)
			for _, e := range evs {
				sw.Observe(e)
			}
			errs[i] = sw.Close()
		}(i, evs)
	}
	wg.Wait()
	for i, err := range errs {
		if i == faulty {
			if !errors.Is(err, faultinject.ErrDiskFull) {
				t.Fatalf("writer %d on a full disk: Close = %v, want ErrDiskFull", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
		got, err := drainCursor(NewFileCursor(bytes.NewReader(bufs[i].Bytes())))
		if err != nil {
			t.Fatalf("writer %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, segs[i]) {
			t.Fatalf("writer %d: decoded %d events, want %d", i, len(got), len(segs[i]))
		}
	}
}

// TestFileCursorEndIsSticky checks a cursor that has read a whole
// segment keeps reporting a clean end, and that BytesConsumed then
// covers the whole file.
func TestFileCursorEndIsSticky(t *testing.T) {
	evs := sessionEvents(37, 1, 1000)[0]
	for _, format := range formats {
		t.Run(format.String(), func(t *testing.T) {
			var buf bytes.Buffer
			sw := NewSegmentWriterFormat(&buf, format, 64)
			for _, e := range evs {
				sw.Observe(e)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			c := NewFileCursor(bytes.NewReader(buf.Bytes()))
			got, err := drainCursor(c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, evs) {
				t.Fatalf("cursor returned %d events, want %d", len(got), len(evs))
			}
			for i := 0; i < 3; i++ {
				if ev, ok, err := c.Next(); ok || err != nil {
					t.Fatalf("Next after end = %v %v %v", ev, ok, err)
				}
			}
			if c.BytesConsumed() != int64(buf.Len()) {
				t.Fatalf("BytesConsumed = %d, want the whole %d-byte segment", c.BytesConsumed(), buf.Len())
			}
		})
	}
}
