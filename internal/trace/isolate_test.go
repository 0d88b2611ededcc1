package trace

import (
	"bytes"
	"errors"
	"testing"
)

// flakySink fails stickily after accepting failAfter events.
type flakySink struct {
	n         int
	failAfter int
	err       error
}

func (f *flakySink) Observe(Event) {
	f.n++
	if f.n >= f.failAfter && f.err == nil {
		f.err = errors.New("sink broke")
	}
}
func (f *flakySink) Err() error { return f.err }

func TestIsolatingMultiSinkDetachesFailingSink(t *testing.T) {
	var healthy collectSink
	flaky := &flakySink{failAfter: 3}
	m := NewIsolatingMultiSink()
	m.Add("healthy", &healthy)
	m.Add("flaky", flaky)
	m.Add("nil", nil) // ignored

	if m.Live() != 2 {
		t.Fatalf("live = %d, want 2 (nil sink must be ignored)", m.Live())
	}
	for _, e := range seqEvents(10, 0, 1) {
		m.Observe(e)
	}
	if m.Live() != 1 {
		t.Fatalf("live = %d after failure, want 1", m.Live())
	}
	if len(healthy.events) != 10 {
		t.Fatalf("healthy sink got %d events, want all 10", len(healthy.events))
	}
	if flaky.n != 3 {
		t.Fatalf("flaky sink got %d events after detaching, want 3", flaky.n)
	}
	det := m.Detached()
	// The third delivery tripped the sticky error, so only the two
	// before it were successfully delivered.
	if len(det) != 1 || det[0].Name != "flaky" || det[0].Events != 2 || det[0].Err == nil {
		t.Fatalf("detachments = %+v", det)
	}
}

// TestDetachmentEventsSemantics locks the Detachment.Events contract:
// events successfully delivered, excluding the delivery that tripped
// the sticky error.
func TestDetachmentEventsSemantics(t *testing.T) {
	cases := []struct {
		name       string
		failAfter  int // delivery index (1-based) the sink fails on
		observe    int
		wantEvents int
	}{
		{"fails on first delivery", 1, 5, 0},
		{"fails on second delivery", 2, 5, 1},
		{"fails on fifth delivery", 5, 5, 4},
		{"fails on last delivery", 3, 3, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			flaky := &flakySink{failAfter: c.failAfter}
			m := NewIsolatingMultiSink()
			m.Add("flaky", flaky)
			for _, e := range seqEvents(c.observe, 0, 1) {
				m.Observe(e)
			}
			det := m.Detached()
			if len(det) != 1 {
				t.Fatalf("detachments = %+v, want 1", det)
			}
			if det[0].Events != c.wantEvents {
				t.Fatalf("Events = %d, want %d", det[0].Events, c.wantEvents)
			}
		})
	}
	// A sink already broken when attached delivered nothing.
	pre := &flakySink{failAfter: 1}
	pre.Observe(Event{})
	m := NewIsolatingMultiSink()
	m.Add("pre-broken", pre)
	m.Observe(Event{Seq: 1})
	if det := m.Detached(); len(det) != 1 || det[0].Events != 0 {
		t.Fatalf("pre-broken detachment = %+v, want Events 0", m.Detached())
	}
}

func TestIsolatingMultiSinkInfallibleSinksNeverDetach(t *testing.T) {
	var a, b collectSink
	m := NewIsolatingMultiSink()
	m.Add("a", &a)
	m.Add("b", &b)
	for _, e := range seqEvents(5, 0, 1) {
		m.Observe(e)
	}
	if m.Live() != 2 || len(m.Detached()) != 0 {
		t.Fatalf("infallible sinks detached: live=%d detached=%v", m.Live(), m.Detached())
	}
	if len(a.events) != 5 || len(b.events) != 5 {
		t.Fatalf("deliveries lost: a=%d b=%d", len(a.events), len(b.events))
	}
}

func TestIsolatingMultiSinkBothFailSameEvent(t *testing.T) {
	f1 := &flakySink{failAfter: 2}
	f2 := &flakySink{failAfter: 2}
	m := NewIsolatingMultiSink()
	m.Add("f1", f1)
	m.Add("f2", f2)
	for _, e := range seqEvents(4, 0, 1) {
		m.Observe(e)
	}
	if m.Live() != 0 {
		t.Fatalf("live = %d, want 0", m.Live())
	}
	det := m.Detached()
	if len(det) != 2 || det[0].Name != "f1" || det[1].Name != "f2" {
		t.Fatalf("detachments = %+v", det)
	}
	// Neither sink saw anything past its failing event.
	if f1.n != 2 || f2.n != 2 {
		t.Fatalf("events after detach: f1=%d f2=%d, want 2/2", f1.n, f2.n)
	}
}

// closeRecorder is a buffer that remembers whether it was closed.
type closeRecorder struct {
	bytes.Buffer
	closed bool
}

func (c *closeRecorder) Close() error {
	c.closed = true
	return nil
}

// faultedJSONL wraps a healthy JSONL sink with a delivery-counted
// sticky fault: deliveries before failOn reach the encoder, the
// failOn-th and later are refused. It models a sink whose error trips
// mid-stream while its buffer still holds every successful event.
type faultedJSONL struct {
	*JSONLSink
	n      int
	failOn int
	fail   error
}

func (s *faultedJSONL) Observe(e Event) {
	s.n++
	if s.n >= s.failOn && s.fail == nil {
		s.fail = errors.New("disk full")
	}
	if s.fail != nil {
		return
	}
	s.JSONLSink.Observe(e)
}

func (s *faultedJSONL) Err() error { return s.fail }

// TestIsolatingMultiSinkFlushClosesDetachedJSONL pins the detach-time
// flush-close: a JSONL sink that fails mid-stream must still land every
// successfully delivered event on its writer, byte-for-byte what a
// direct sink fed the same prefix would have written. Before the fix
// the fan-out just dropped the sink, leaving its bufio buffer — all of
// its output, for a short stream — unflushed and the file empty.
func TestIsolatingMultiSinkFlushClosesDetachedJSONL(t *testing.T) {
	events := seqEvents(10, 0, 1)
	const failOn = 4 // deliveries 1..3 land, the 4th trips the fault

	var want bytes.Buffer
	ref := NewJSONLSink(&want)
	for _, e := range events[:failOn-1] {
		ref.Observe(e)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("reference stream is empty; test proves nothing")
	}

	var rec closeRecorder
	sink := &faultedJSONL{JSONLSink: NewJSONLSinkCloser(&rec), failOn: failOn}
	var healthy collectSink
	m := NewIsolatingMultiSink()
	m.Add("jsonl", sink)
	m.Add("healthy", &healthy)
	for _, e := range events {
		m.Observe(e)
	}

	det := m.Detached()
	if len(det) != 1 || det[0].Name != "jsonl" || det[0].Events != failOn-1 {
		t.Fatalf("detachments = %+v, want jsonl with Events %d", det, failOn-1)
	}
	if det[0].CloseErr != nil {
		t.Fatalf("flush-close of the detached sink failed: %v", det[0].CloseErr)
	}
	if !rec.closed {
		t.Fatal("detached sink's writer was not closed")
	}
	if !bytes.Equal(rec.Bytes(), want.Bytes()) {
		t.Fatalf("detached sink output diverges:\ngot  %q\nwant %q", rec.Bytes(), want.Bytes())
	}
	if len(healthy.events) != len(events) {
		t.Fatalf("healthy sink got %d events, want %d", len(healthy.events), len(events))
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestIsolatingMultiSinkCloseFlushesAttached(t *testing.T) {
	events := seqEvents(6, 0, 1)
	var want bytes.Buffer
	ref := NewJSONLSink(&want)
	for _, e := range events {
		ref.Observe(e)
	}
	ref.Close()

	var rec closeRecorder
	m := NewIsolatingMultiSink()
	m.Add("jsonl", NewJSONLSinkCloser(&rec))
	for _, e := range events {
		m.Observe(e)
	}
	if rec.Len() != 0 {
		t.Fatalf("short stream flushed early (%d bytes): Close has nothing left to prove", rec.Len())
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !rec.closed {
		t.Fatal("attached sink's writer was not closed")
	}
	if !bytes.Equal(rec.Bytes(), want.Bytes()) {
		t.Fatalf("closed sink output diverges:\ngot  %q\nwant %q", rec.Bytes(), want.Bytes())
	}
	if m.Live() != 0 {
		t.Fatalf("live = %d after Close, want 0", m.Live())
	}
	if len(m.Detached()) != 0 {
		t.Fatalf("clean Close recorded detachments: %+v", m.Detached())
	}
	// Idempotent, and Observe after Close is a no-op.
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	before := rec.Len()
	m.Observe(events[0])
	if rec.Len() != before {
		t.Fatal("Observe after Close delivered an event")
	}
}

// closeFailSink closes with an error, modeling a sink whose final flush
// hits the same bad disk its stream did.
type closeFailSink struct {
	n   int
	err error
}

func (s *closeFailSink) Observe(Event) { s.n++ }
func (s *closeFailSink) Close() error  { return s.err }

func TestIsolatingMultiSinkCloseFailureRecordedAsDetachment(t *testing.T) {
	bad := &closeFailSink{err: errors.New("close failed")}
	var healthy collectSink
	m := NewIsolatingMultiSink()
	m.Add("bad", bad)
	m.Add("healthy", &healthy)
	for _, e := range seqEvents(3, 0, 1) {
		m.Observe(e)
	}
	err := m.Close()
	if err == nil {
		t.Fatal("Close swallowed the sink's close failure")
	}
	det := m.Detached()
	// All 3 deliveries succeeded — the failure is in releasing the sink.
	if len(det) != 1 || det[0].Name != "bad" || det[0].Events != 3 || det[0].Err == nil {
		t.Fatalf("detachments = %+v", det)
	}
	if again := m.Close(); again != err {
		t.Fatalf("second Close = %v, want the original %v", again, err)
	}
}
