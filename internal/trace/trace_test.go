package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/tracesynth/rostracer/internal/sim"
)

func sampleEvents() []Event {
	return []Event{
		{Time: 10, Seq: 1, PID: 100, Kind: KindCreateNode, Node: "filter_front"},
		{Time: 20, Seq: 2, PID: 100, Kind: KindSubCBStart},
		{Time: 20, Seq: 3, PID: 100, Kind: KindTakeInt, CBID: 0xA0, Topic: "lidar_front/points_raw", SrcTS: 15},
		{Time: 25, Seq: 4, PID: 100, Kind: KindDDSWrite, Topic: "lidar_front/points_filtered", SrcTS: 25},
		{Time: 25, Seq: 5, PID: 100, Kind: KindSubCBEnd},
		{Time: 22, Seq: 6, Kind: KindSchedSwitch, CPU: 1, PrevPID: 100, NextPID: 200, PrevPrio: 5, NextPrio: 9, PrevState: 0},
		{Time: 30, Seq: 7, PID: 200, Kind: KindTakeTypeErased, Ret: 1},
	}
}

func TestMergeSorts(t *testing.T) {
	a := &Trace{Events: []Event{{Time: 30, Seq: 1, Kind: KindSubCBEnd}}}
	b := &Trace{Events: []Event{{Time: 10, Seq: 2, Kind: KindSubCBStart}}}
	m := mergeStreams(t, a, b, nil)
	if len(m.Events) != 2 || m.Events[0].Time != 10 {
		t.Fatalf("merge = %v", m.Events)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := &Trace{Events: sampleEvents()}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := decodeAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got.Events, tr.Events)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := decodeAll(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestJSONLRoundTrip checks JSONLSink's lines carry every field: each
// decodes back to the event it was written from.
func TestJSONLRoundTrip(t *testing.T) {
	want := sampleEvents()
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for _, e := range want {
		s.Observe(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Event
	for dec := json.NewDecoder(&buf); dec.More(); {
		var je jsonEvent
		if err := dec.Decode(&je); err != nil {
			t.Fatal(err)
		}
		if je.Kind != Kind(je.K).String() {
			t.Fatalf("kind name %q for kind %d", je.Kind, je.K)
		}
		got = append(got, Event{
			Time: sim.Time(je.T), Seq: je.Seq, PID: je.PID, Kind: Kind(je.K),
			Node: je.Node, CBID: je.CBID, Topic: je.Topic, SrcTS: je.SrcTS,
			Ret: je.Ret, CPU: je.CPU, PrevPID: je.PPID, NextPID: je.NPID,
			PrevPrio: je.PPrio, NextPrio: je.NPrio, PrevState: je.PSt,
		})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(timeNs int64, seq uint64, pid uint32, kind8 uint8, cbid uint64, topic string, srcts int64) bool {
		kind := Kind(kind8%uint8(numKinds-1)) + 1
		if len(topic) > 1000 {
			topic = topic[:1000]
		}
		ev := Event{Time: sim.Time(timeNs), Seq: seq, PID: pid, Kind: kind,
			CBID: cbid, Topic: topic, SrcTS: srcts}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, &Trace{Events: []Event{ev}}); err != nil {
			return false
		}
		got, err := decodeAll(&buf)
		return err == nil && len(got.Events) == 1 && got.Events[0] == ev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSessions(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg1 := []Event{{Time: 1, Seq: 1, Kind: KindSubCBStart, PID: 1}}
	seg2 := []Event{{Time: 5, Seq: 2, Kind: KindSubCBEnd, PID: 1}}
	writeSessionSegment(t, st, "run1", 0, seg1)
	writeSessionSegment(t, st, "run1", 1, seg2)
	writeSessionSegment(t, st, "run2", 0, seg1)

	sessions, err := st.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sessions, []string{"run1", "run2"}) {
		t.Fatalf("sessions = %v", sessions)
	}

	merged := loadSession(t, st, "run1")
	if len(merged.Events) != 2 || merged.Events[0].Time != 1 || merged.Events[1].Time != 5 {
		t.Fatalf("merged session = %v", merged.Events)
	}

	var col Collector
	if err := st.StreamSession("nope", &col); err == nil {
		t.Fatal("missing session loaded")
	}
}

// TestTimeSpan checks SpanTracker counts a stream's events, and zero
// for an empty one.
func TestTimeSpan(t *testing.T) {
	var span SpanTracker
	for _, e := range sampleEvents() {
		span.Observe(e)
	}
	if span.Total() != 7 {
		t.Fatalf("counted %d events, want 7", span.Total())
	}
	var empty SpanTracker
	if empty.Total() != 0 {
		t.Fatal("empty count not zero")
	}
}

func TestKindPredicates(t *testing.T) {
	starts := []Kind{KindTimerCBStart, KindSubCBStart, KindServiceCBStart, KindClientCBStart}
	ends := []Kind{KindTimerCBEnd, KindSubCBEnd, KindServiceCBEnd, KindClientCBEnd}
	takes := []Kind{KindTakeInt, KindTakeRequest, KindTakeResponse}
	for _, k := range starts {
		if !k.IsCBStart() || k.IsCBEnd() || k.IsTake() {
			t.Errorf("%v predicates wrong", k)
		}
	}
	for _, k := range ends {
		if !k.IsCBEnd() || k.IsCBStart() {
			t.Errorf("%v predicates wrong", k)
		}
	}
	for _, k := range takes {
		if !k.IsTake() {
			t.Errorf("%v predicates wrong", k)
		}
	}
	if KindSchedSwitch.IsCBStart() || KindSchedSwitch.IsCBEnd() || KindSchedSwitch.IsTake() {
		t.Error("sched switch predicates wrong")
	}
}
