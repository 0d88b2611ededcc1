package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/tracesynth/rostracer/internal/faultinject"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

func seqEvents(n int, t0 sim.Time, s0 uint64) []trace.Event {
	out := make([]trace.Event, n)
	for i := range out {
		out[i] = trace.Event{
			Time: t0 + sim.Time(i)*10, Seq: s0 + uint64(i),
			PID: 100, Kind: trace.KindSubCBStart, Topic: "t",
		}
	}
	return out
}

// quiet is a no-sleep policy for fault tests.
func quiet() Policy {
	return Policy{Sleep: func(time.Duration) {}}
}

// newStore returns a store in a fresh directory, and the directory.
func newStore(t *testing.T) (*trace.Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := trace.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// readSession streams a session back strictly and returns its events.
func readSession(t *testing.T, s *trace.Store, session string) []trace.Event {
	t.Helper()
	var got []trace.Event
	if err := s.StreamSession(session, trace.SinkFunc(func(e trace.Event) {
		got = append(got, e)
	})); err != nil {
		t.Fatalf("strict readback: %v", err)
	}
	return got
}

func TestHealthyPathByteIdenticalToPlainWriter(t *testing.T) {
	store, dir := newStore(t)
	events := seqEvents(100, 0, 1)

	// Plain fail-stop path.
	sw, err := store.WriteSegment("plain", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		sw.Observe(e)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	// Hardened path, no faults.
	w := NewSessionWriter(store, "hard", Policy{})
	w.BeginSegment()
	for _, e := range events {
		w.Observe(e)
	}
	res := w.EndSegment()
	if res.Persisted != len(events) || res.Down {
		t.Fatalf("end segment: %+v", res)
	}
	w.Close()

	plain, err := os.ReadFile(filepath.Join(dir, "plain-0000.rtrc"))
	if err != nil {
		t.Fatal(err)
	}
	hard, err := os.ReadFile(filepath.Join(dir, "hard-0000.rtrc"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, hard) {
		t.Fatal("healthy SessionWriter output differs from plain SegmentWriter")
	}
	stats := w.Stats()
	if stats.Degraded() || stats.Retries != 0 || stats.Persisted != uint64(len(events)) {
		t.Fatalf("healthy stats: %+v", stats)
	}
}

func TestMidSegmentFailureRotatesAndReplays(t *testing.T) {
	store, dir := newStore(t)
	// First opened file dies after 1 KB; the rotation target is healthy.
	disk := faultinject.NewDisk(
		[]faultinject.WriteFault{{Kind: faultinject.WriteFailAfter, N: 1 << 10}},
	)
	store.WrapWriter = disk.Wrap

	events := seqEvents(200, 0, 1) // ~15 KB, far past the fault
	w := NewSessionWriter(store, "rot", quiet())
	w.BeginSegment()
	for _, e := range events {
		w.Observe(e)
	}
	res := w.EndSegment()
	w.Close()
	if res.Persisted != len(events) || res.Down {
		t.Fatalf("end segment: %+v", res)
	}

	stats := w.Stats()
	if stats.Rotations != 1 || stats.Dropped != 0 {
		t.Fatalf("stats: %+v, want 1 rotation and no drops", stats)
	}
	if got := readSession(t, store, "rot"); !reflect.DeepEqual(got, events) {
		t.Fatalf("replay lost events: got %d, want %d", len(got), len(events))
	}
	// The failed segment file must be gone — no partial record on disk.
	files, err := filepath.Glob(filepath.Join(dir, "rot-*.rtrc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("segment files on disk: %v, want exactly the replacement", files)
	}
	rep, err := store.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck after rotation:\n%s", rep)
	}
}

func TestDiskDownSpillsThenRecovers(t *testing.T) {
	store, _ := newStore(t)
	dead := []faultinject.WriteFault{{Kind: faultinject.WriteFailAll}}
	// Window 1's two open attempts hit a dead disk; the next
	// BeginSegment's first attempt succeeds.
	disk := faultinject.NewDisk(nil, dead, dead)
	store.WrapWriter = disk.Wrap

	pol := quiet()
	pol.MaxAttempts = 2
	pol.SpillCapacity = 50
	w := NewSessionWriter(store, "down", pol)

	// Window 0: healthy.
	first := seqEvents(40, 0, 1)
	w.BeginSegment()
	for _, e := range first {
		w.Observe(e)
	}
	if res := w.EndSegment(); res.Persisted != 40 {
		t.Fatalf("window 0: %+v", res)
	}

	// Window 1: disk dies; spill holds 50, the rest drop.
	second := seqEvents(80, 10000, 1000)
	w.BeginSegment()
	for _, e := range second {
		w.Observe(e)
	}
	res := w.EndSegment()
	if !res.Down || !w.Down() {
		t.Fatalf("window 1 should leave the writer down: %+v", res)
	}
	if w.Pending() != 50 {
		t.Fatalf("pending = %d, want the spill bound", w.Pending())
	}

	// Window 2: disk back; spill replays ahead of fresh events.
	third := seqEvents(10, 20000, 2000)
	w.BeginSegment()
	if w.Down() {
		t.Fatal("recovery failed with a healthy disk")
	}
	for _, e := range third {
		w.Observe(e)
	}
	if res := w.EndSegment(); res.Persisted != 60 {
		t.Fatalf("window 2 persisted %d, want 50 spilled + 10 fresh", res.Persisted)
	}
	w.Close()

	stats := w.Stats()
	if stats.Observed != 130 || stats.Persisted != 100 || stats.Dropped != 30 {
		t.Fatalf("ledger: %+v, want 130 == 100 + 30", stats)
	}
	if stats.Down == 0 || stats.SpillPeak != 50 || !stats.Degraded() {
		t.Fatalf("degradation not recorded: %+v", stats)
	}
	want := append(append(append([]trace.Event(nil), first...), second[:50]...), third...)
	if got := readSession(t, store, "down"); !reflect.DeepEqual(got, want) {
		t.Fatalf("readback %d events, want %d (first + spilled prefix + third)", len(got), len(want))
	}
}

func TestCloseWhileDownAccountsEverything(t *testing.T) {
	store, dir := newStore(t)
	dead := []faultinject.WriteFault{{Kind: faultinject.WriteFailAll}}
	disk := faultinject.NewDisk(dead, dead, dead, dead, dead, dead, dead, dead)
	store.WrapWriter = disk.Wrap

	pol := quiet()
	pol.MaxAttempts = 2
	pol.SpillCapacity = 10
	w := NewSessionWriter(store, "doomed", pol)
	w.BeginSegment()
	for _, e := range seqEvents(25, 0, 1) {
		w.Observe(e)
	}
	w.EndSegment()
	res := w.Close()
	if !res.Down || res.Persisted != 0 {
		t.Fatalf("close on a dead disk: %+v", res)
	}

	stats := w.Stats()
	if stats.Persisted != 0 || stats.Dropped != 25 || stats.Observed != 25 {
		t.Fatalf("ledger: %+v, want all 25 dropped", stats)
	}
	if w.Pending() != 0 {
		t.Fatalf("pending after close = %d", w.Pending())
	}
	// Observe after close is a no-op, not a panic or a leak.
	w.Observe(trace.Event{Time: 1, Seq: 99})
	if w.Stats().Observed != 25 {
		t.Fatal("closed writer still counting")
	}
	// No segment file survives.
	files, err := filepath.Glob(filepath.Join(dir, "doomed-*.rtrc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("dead-disk session left files: %v", files)
	}
}

func TestBackoffBoundedAndCounted(t *testing.T) {
	store, _ := newStore(t)
	dead := make([][]faultinject.WriteFault, 30)
	for i := range dead {
		dead[i] = []faultinject.WriteFault{{Kind: faultinject.WriteFailAll}}
	}
	disk := faultinject.NewDisk(dead...)
	store.WrapWriter = disk.Wrap

	var slept []time.Duration
	pol := Policy{
		MaxAttempts: 10,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	w := NewSessionWriter(store, "retry", pol)
	w.BeginSegment()
	w.Observe(trace.Event{Time: 1, Seq: 1, Kind: trace.KindSubCBStart})
	w.EndSegment()
	w.Close()

	// recover() backs off between its attempts: 10ms doubling per retry,
	// capped at backoffMax, which nine retries reach.
	if len(slept) < pol.MaxAttempts-1 {
		t.Fatalf("%d backoff sleeps recorded, want >= %d", len(slept), pol.MaxAttempts-1)
	}
	for i, d := range slept[:pol.MaxAttempts-1] {
		if want := min(backoffBase<<i, backoffMax); d != want {
			t.Fatalf("sleep %d = %v, want %v", i, d, want)
		}
	}
	for i, d := range slept {
		if d > backoffMax {
			t.Fatalf("sleep %d = %v exceeds cap %v", i, d, backoffMax)
		}
	}
	if slept[pol.MaxAttempts-2] != backoffMax {
		t.Fatalf("doubling never reached the cap: %v", slept)
	}
	if w.Stats().Retries != len(slept) {
		t.Fatalf("retries = %d, sleeps = %d", w.Stats().Retries, len(slept))
	}
}

func TestBeginSegmentIdempotentWhileOpen(t *testing.T) {
	store, dir := newStore(t)
	w := NewSessionWriter(store, "idem", Policy{})
	w.BeginSegment()
	w.BeginSegment() // no-op: segment already open
	w.Observe(trace.Event{Time: 1, Seq: 1, Kind: trace.KindSubCBStart})
	w.EndSegment()
	w.Close()
	files, err := filepath.Glob(filepath.Join(dir, "idem-*.rtrc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("files = %v, want one segment", files)
	}
	if w.Stats().Segments != 1 {
		t.Fatalf("segments = %d, want 1", w.Stats().Segments)
	}
}
