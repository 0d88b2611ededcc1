package trace

import (
	"bytes"
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

func TestSortByTimeUsesSeqTiebreak(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Time: 20, Seq: 3, Kind: KindTakeInt},
		{Time: 20, Seq: 2, Kind: KindSubCBStart},
		{Time: 10, Seq: 9, Kind: KindCreateNode},
	}}
	tr.SortByTime()
	if tr.Events[0].Kind != KindCreateNode || tr.Events[1].Kind != KindSubCBStart || tr.Events[2].Kind != KindTakeInt {
		t.Fatalf("order wrong: %v", tr.Events)
	}
}

func TestFilterPIDIncludesSchedMentions(t *testing.T) {
	tr := &Trace{Events: sampleEvents()}
	got := tr.FilterPID(200)
	// PID 200 events: the sched switch mentioning 200 and the P14 event.
	if len(got.Events) != 2 {
		t.Fatalf("filtered %d events, want 2: %v", len(got.Events), got.Events)
	}
}

func TestROSAndSchedSplit(t *testing.T) {
	tr := &Trace{Events: sampleEvents()}
	if n := tr.ROSEvents().Len(); n != 6 {
		t.Errorf("ros events = %d, want 6", n)
	}
	if n := tr.SchedEvents().Len(); n != 1 {
		t.Errorf("sched events = %d, want 1", n)
	}
}

func TestPIDsAndNodes(t *testing.T) {
	tr := &Trace{Events: sampleEvents()}
	if got := tr.PIDs(); !reflect.DeepEqual(got, []uint32{100, 200}) {
		t.Errorf("PIDs = %v", got)
	}
	nodes := tr.Nodes()
	if nodes["filter_front"] != 100 {
		t.Errorf("nodes = %v", nodes)
	}
}

func TestMergeSorts(t *testing.T) {
	a := &Trace{Events: []Event{{Time: 30, Seq: 1, Kind: KindSubCBEnd}}}
	b := &Trace{Events: []Event{{Time: 10, Seq: 2, Kind: KindSubCBStart}}}
	m := mergeStreams(t, a, b, nil)
	if m.Len() != 2 || m.Events[0].Time != 10 {
		t.Fatalf("merge = %v", m.Events)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := &Trace{Events: sampleEvents()}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got.Events, tr.Events)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := &Trace{Events: sampleEvents()}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count %d != %d", len(got.Events), len(tr.Events))
	}
	for i := range got.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d mismatch: %v != %v", i, got.Events[i], tr.Events[i])
		}
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
		got, err := ReadBinary(&buf)
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
	seg1 := &Trace{Events: []Event{{Time: 1, Seq: 1, Kind: KindSubCBStart, PID: 1}}}
	seg2 := &Trace{Events: []Event{{Time: 5, Seq: 2, Kind: KindSubCBEnd, PID: 1}}}
	if err := st.SaveSegment("run1", 0, seg1); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSegment("run1", 1, seg2); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSegment("run2", 0, seg1); err != nil {
		t.Fatal(err)
	}

	sessions, err := st.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sessions, []string{"run1", "run2"}) {
		t.Fatalf("sessions = %v", sessions)
	}

	merged := loadSession(t, st, "run1")
	if merged.Len() != 2 || merged.Events[0].Time != 1 || merged.Events[1].Time != 5 {
		t.Fatalf("merged session = %v", merged.Events)
	}

	var col Collector
	if err := st.StreamSession("nope", &col); err == nil {
		t.Fatal("missing session loaded")
	}
}

func TestTimeSpan(t *testing.T) {
	tr := &Trace{Events: sampleEvents()}
	first, last := tr.TimeSpan()
	if first != 10 || last != 30 {
		t.Fatalf("span = [%v, %v]", first, last)
	}
	empty := &Trace{}
	if f, l := empty.TimeSpan(); f != 0 || l != 0 {
		t.Fatal("empty span not zero")
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
