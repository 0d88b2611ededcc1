package trace

import (
	"bytes"
	"math/rand"
	"os"
	"slices"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// querySession is one fuzzed session: its store and its segment files,
// in order.
type querySession struct {
	store *Store
	paths []string
}

// queryFuzzKinds and queryFuzzNodes are the alphabets the fuzzed sessions
// and filters draw from; node 0 ("") means "no node filter".
var (
	queryFuzzKinds = []Kind{KindSubCBStart, KindSubCBEnd, KindTakeInt, KindDDSWrite, KindSchedSwitch}
	queryFuzzNodes = []string{"", "filter_front", "fusion", "planner"}
)

// writeQuerySession writes size seeded, (Time, Seq)-sorted events as a
// three-segment v2 session cut into blocks of blockRecords (0 is the
// default). Times repeat now and then, so Seq breaks ties.
func writeQuerySession(t testing.TB, dir string, seed int64, size, blockRecords int) *querySession {
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.BlockRecords = blockRecords
	rng := rand.New(rand.NewSource(seed))
	qs := &querySession{store: s}
	var events []Event
	now := sim.Time(1)
	for i := 0; i < size; i++ {
		now += sim.Time(rng.Intn(3) * rng.Intn(20))
		ev := Event{Time: now, Seq: uint64(i + 1), Kind: queryFuzzKinds[rng.Intn(len(queryFuzzKinds))],
			PID: uint32(100 + rng.Intn(4))}
		if ev.Kind == KindSubCBStart || ev.Kind == KindSubCBEnd {
			ev.Node = queryFuzzNodes[1+rng.Intn(len(queryFuzzNodes)-1)]
		}
		events = append(events, ev)
	}
	const segments = 3
	for i := 0; i < segments; i++ {
		sw, err := s.WriteSegment("f", i)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events[i*size/segments : (i+1)*size/segments] {
			sw.Observe(e)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		qs.paths = append(qs.paths, sw.Path())
	}
	return qs
}

// damage applies op to the byte at offset at of the session's segment
// files taken end to end: 1 truncates that file there, 2 flips the bits
// of mask (made non-zero) in that byte; anything else leaves it intact.
// It reports whether a file changed.
func (qs *querySession) damage(t *testing.T, op uint8, at uint32, mask uint8) bool {
	if op%3 == 0 {
		return false
	}
	off := int64(at)
	for _, path := range qs.paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if off >= int64(len(data)) {
			off -= int64(len(data))
			continue
		}
		if op%3 == 1 {
			data = data[:off]
		} else {
			data[off] ^= mask | 1
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return true
	}
	return false
}

// FuzzQueryMatchesStream is the property that a query is a filtered
// stream. On an undamaged session QuerySession must deliver exactly the
// filter applied to StreamSession's events, and count them in
// RecordsMatched. On a session with one truncated file or one flipped
// byte, the empty-filter query — which selects every block through the
// index — must fail with the same damage class as StreamSession, or
// succeed with the same events when StreamSession does; what it delivers
// before failing is a prefix of what StreamSession delivers.
func FuzzQueryMatchesStream(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(16), uint16(0), uint16(0), uint16(0), uint8(0), uint8(0), uint32(0), uint8(0))
	f.Add(int64(2), uint16(500), uint8(8), uint16(900), uint16(600), uint16(0b10011), uint8(2), uint8(0), uint32(0), uint8(0))
	f.Add(int64(3), uint16(200), uint8(0), uint16(0), uint16(0), uint16(0), uint8(0), uint8(1), uint32(700), uint8(0))
	// A flip of every byte of one segment's frame headers and footer
	// (where the index and the data can disagree), a truncation at each
	// of them, and a flip inside a block body.
	dir := f.TempDir()
	qs := writeQuerySession(f, dir, 4, 240, 16)
	data, err := os.ReadFile(qs.paths[0])
	if err != nil {
		f.Fatal(err)
	}
	fc := NewFileCursor(bytes.NewReader(data))
	if _, err := drainCursor(fc); err != nil {
		f.Fatal(err)
	}
	var headers []int64
	for _, bi := range fc.obsIndex {
		headers = append(headers, bi.Offset, bi.Offset+1)
	}
	last := fc.obsIndex[len(fc.obsIndex)-1]
	for at := last.Offset + 5 + int64(last.Len); at < int64(len(data)); at++ {
		headers = append(headers, at)
	}
	for _, at := range headers {
		f.Add(int64(4), uint16(240), uint8(16), uint16(0), uint16(0), uint16(0), uint8(0), uint8(2), uint32(at), uint8(1))
		f.Add(int64(4), uint16(240), uint8(16), uint16(0), uint16(0), uint16(0), uint8(0), uint8(1), uint32(at), uint8(0))
	}
	f.Add(int64(4), uint16(240), uint8(16), uint16(0), uint16(0), uint16(0), uint8(0), uint8(2), uint32(headers[0]+20), uint8(0x40))

	f.Fuzz(func(t *testing.T, seed int64, size uint16, blockRecords uint8, t0, t1, kinds uint16, node, op uint8, at uint32, mask uint8) {
		qs := writeQuerySession(t, t.TempDir(), seed, int(size%1200), int(blockRecords%64))
		if qs.damage(t, op, at, mask) {
			var streamed, got collectSink
			serr := qs.store.StreamSession("f", &streamed)
			_, qerr := qs.store.QuerySession("f", Filter{}, &got)
			if (serr == nil) != (qerr == nil) || serr != nil && classifyDamage(serr) != classifyDamage(qerr) {
				t.Fatalf("damage op %d at %d: stream err %v, query err %v", op%3, at, serr, qerr)
			}
			if n := len(got.events); n > len(streamed.events) || !slices.Equal(got.events, streamed.events[:n]) ||
				qerr == nil && n != len(streamed.events) {
				t.Fatalf("damage op %d at %d: query delivered %d events, not a prefix of the stream's %d",
					op%3, at, n, len(streamed.events))
			}
			return
		}
		fl := Filter{T0: sim.Time(t0), Node: queryFuzzNodes[int(node)%len(queryFuzzNodes)]}
		if t1 != 0 {
			fl.T1 = fl.T0 + sim.Time(t1)
		}
		for i, k := range queryFuzzKinds {
			if kinds&(1<<i) != 0 {
				fl.Kinds = append(fl.Kinds, k)
			}
		}
		var streamed, got collectSink
		if err := qs.store.StreamSession("f", &streamed); err != nil {
			t.Fatal(err)
		}
		stats, err := qs.store.QuerySession("f", fl, &got)
		if err != nil {
			t.Fatalf("query %+v: %v", fl, err)
		}
		want := applyFilter(streamed.events, fl)
		if !slices.Equal(got.events, want) || stats.RecordsMatched != len(want) {
			t.Fatalf("query %+v: %d events (%d matched), want %d", fl, len(got.events), stats.RecordsMatched, len(want))
		}
	})
}
