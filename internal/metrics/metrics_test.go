package metrics

import (
	"errors"
	"strings"
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	g := r.Gauge("g", "g")
	g.Set(-2)
	if got := g.Value(); got != -2 {
		t.Fatalf("gauge = %d, want -2", got)
	}
	// Registration is idempotent: same cells come back.
	if r.Counter("c_total", "c") != c || r.Gauge("g", "g") != g {
		t.Fatal("re-registration returned different cells")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "x")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("h_ns", "h", "", []int64{10, 100}).With("")
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1+10+11+100+101+5000 {
		t.Fatalf("sum = %d", h.Sum())
	}
	// Bounds are inclusive: 10 lands in le="10", 11 in le="100".
	want := []uint64{2, 2, 2}
	for i, w := range want {
		if got := h.cells[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestValueSumsLabels(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("lost_total", "lost", "cpu")
	vec.With("0").Set(3)
	vec.With("1").Set(4)
	if v, ok := r.Value("lost_total", "1"); !ok || v != 4 {
		t.Fatalf("Value(lost_total,1) = %v,%v", v, ok)
	}
	if v, ok := r.Value("lost_total", ""); !ok || v != 7 {
		t.Fatalf("Value(lost_total,) = %v,%v, want 7", v, ok)
	}
	if _, ok := r.Value("absent", ""); ok {
		t.Fatal("Value on absent family reported ok")
	}
	if _, ok := r.Value("lost_total", "9"); ok {
		t.Fatal("Value on absent cell reported ok")
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a counter").Set(3)
	r.GaugeVec("b", "a gauge", "cpu").With("0").Set(-2)
	h := r.HistogramVec("lat_ns", "latency", "topic", []int64{10, 100})
	h.With("/chatter").Observe(5)
	h.With("/chatter").Observe(50)
	h.With("/chatter").Observe(5000)

	text := r.Exposition()
	e, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("ParseExposition: %v\n%s", err, text)
	}
	if e.Types["a_total"] != "counter" || e.Types["b"] != "gauge" || e.Types["lat_ns"] != "histogram" {
		t.Fatalf("types = %v", e.Types)
	}
	checks := map[string]float64{
		"a_total":    3,
		`b{cpu="0"}`: -2,
		`lat_ns_bucket{topic="/chatter",le="10"}`:   1,
		`lat_ns_bucket{topic="/chatter",le="100"}`:  2,
		`lat_ns_bucket{topic="/chatter",le="+Inf"}`: 3,
		`lat_ns_sum{topic="/chatter"}`:              5055,
		`lat_ns_count{topic="/chatter"}`:            3,
	}
	for k, want := range checks {
		if got, ok := e.Samples[k]; !ok || got != want {
			t.Errorf("sample %s = %v,%v want %v\n%s", k, got, ok, want, text)
		}
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_type_decl 3",
		"# TYPE x wibble\nx 1",
		"# TYPE x counter\nx notanumber",
		"# TYPE x counter\nx{unterminated 3",
		"# TYPE x counter\nx 1\nx 2",
	} {
		if _, err := ParseExposition(bad); err == nil {
			t.Errorf("ParseExposition(%q) accepted garbage", bad)
		}
	}
}

func TestMonotoneViolations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.HistogramVec("h_ns", "h", "", []int64{10}).With("")
	c.Set(5)
	g.Set(5)
	h.Observe(1)
	prev, err := ParseExposition(r.Exposition())
	if err != nil {
		t.Fatal(err)
	}

	// Gauges may fall freely; counters and histogram counts must not.
	g.Set(1)
	cur, err := ParseExposition(r.Exposition())
	if err != nil {
		t.Fatal(err)
	}
	if v := cur.MonotoneViolations(prev); len(v) != 0 {
		t.Fatalf("gauge decrease flagged: %v", v)
	}

	c.Set(2) // force a counter regression
	cur, err = ParseExposition(r.Exposition())
	if err != nil {
		t.Fatal(err)
	}
	v := cur.MonotoneViolations(prev)
	if len(v) != 1 || !strings.Contains(v[0], "c_total") {
		t.Fatalf("violations = %v, want one on c_total", v)
	}
}

func TestParseAlertRule(t *testing.T) {
	cases := []struct {
		in   string
		want AlertRule
	}{
		{"ring-lost: delta(rostracer_ring_lost_records_total) > 0",
			AlertRule{Name: "ring-lost", Metric: "rostracer_ring_lost_records_total", Delta: true, Op: ">", Value: 0}},
		{"hot: rostracer_ring_pending_records{3} >= 1024",
			AlertRule{Name: "hot", Metric: "rostracer_ring_pending_records", Label: "3", Op: ">=", Value: 1024}},
		{"drops: rostracer_store_dropped_events_total > 0",
			AlertRule{Name: "drops", Metric: "rostracer_store_dropped_events_total", Op: ">", Value: 0}},
		{"capped: delta(rostracer_intern_capped{}) > 2.5",
			AlertRule{Name: "capped", Metric: "rostracer_intern_capped", Delta: true, Op: ">", Value: 2.5}},
	}
	for _, c := range cases {
		got, err := ParseAlertRule(c.in)
		if err != nil {
			t.Errorf("ParseAlertRule(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseAlertRule(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String() round-trips through the parser.
		back, err := ParseAlertRule(got.String())
		if err != nil || back != got {
			t.Errorf("round-trip of %q via %q = %+v, %v", c.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{
		"", "noname > 3", "n: metric < 3", "n: > 3", "n: m > x",
		"n: delta(m > 3", "n: m{x > 3",
	} {
		if _, err := ParseAlertRule(bad); err == nil {
			t.Errorf("ParseAlertRule(%q) accepted garbage", bad)
		}
	}
}

func TestAlertsLevelAndSticky(t *testing.T) {
	r := NewRegistry()
	det := r.Counter("rostracer_sink_detached_total", "d")
	a := NewAlerts(r, []AlertRule{{Name: "sink-detached", Metric: "rostracer_sink_detached_total", Op: ">", Value: 0}})

	if firing := a.Evaluate(); len(firing) != 0 {
		t.Fatalf("fired at zero: %+v", firing[0])
	}
	det.Inc()
	firing := a.Evaluate()
	if len(firing) != 1 || firing[0].Rule.Name != "sink-detached" || firing[0].FiredAt != 2 {
		t.Fatalf("firing = %+v", firing)
	}
	// Sticky across later rounds even if still firing.
	a.Evaluate()
	st := a.Fired()
	if len(st) != 1 || st[0].FiredAt != 2 || st[0].Count != 2 {
		t.Fatalf("Fired() = %+v", st)
	}
}

func TestAlertsDeltaBaseline(t *testing.T) {
	r := NewRegistry()
	lost := r.CounterVec("rostracer_ring_lost_records_total", "l", "cpu")
	lost.With("0").Set(100) // pre-existing loss before alerting starts
	a := NewAlerts(r, []AlertRule{{Name: "ring-lost", Metric: "rostracer_ring_lost_records_total", Delta: true, Op: ">", Value: 0}})

	// Round 1 only records the baseline — a nonzero starting level must
	// not false-fire a growth rule.
	if f := a.Evaluate(); len(f) != 0 {
		t.Fatalf("delta rule fired on baseline: %+v", f[0])
	}
	if f := a.Evaluate(); len(f) != 0 {
		t.Fatalf("delta rule fired with no growth: %+v", f[0])
	}
	lost.With("1").Set(3) // growth on another CPU still counts (label sum)
	f := a.Evaluate()
	if len(f) != 1 || f[0].Last != 3 {
		t.Fatalf("firing = %+v", f)
	}
	if f := a.Evaluate(); len(f) != 0 {
		t.Fatal("delta rule kept firing after growth stopped")
	}
}

func TestAlertsGEOp(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("pending", "p")
	a := NewAlerts(r, []AlertRule{{Name: "full", Metric: "pending", Op: ">=", Value: 10}})
	g.Set(9)
	if f := a.Evaluate(); len(f) != 0 {
		t.Fatal("fired below threshold")
	}
	g.Set(10)
	if f := a.Evaluate(); len(f) != 1 {
		t.Fatal(">= did not fire at threshold")
	}
}

func TestDefaultAlertRulesParse(t *testing.T) {
	for _, rule := range DefaultAlertRules() {
		back, err := ParseAlertRule(rule.String())
		if err != nil || back != rule {
			t.Errorf("default rule %+v does not round-trip: %+v, %v", rule, back, err)
		}
	}
}

func TestSinkFoldsEvents(t *testing.T) {
	r := NewRegistry()
	s := NewSink(r)
	evs := []trace.Event{
		{Time: 10, Seq: 1, PID: 7, Kind: trace.KindCreateNode, Node: "camera"},
		{Time: 100, Seq: 2, PID: 7, Kind: trace.KindSubCBStart},
		{Time: 150, Seq: 3, PID: 7, Kind: trace.KindTakeInt, Topic: "/img", SrcTS: 50},
		{Time: 400, Seq: 4, PID: 7, Kind: trace.KindSubCBEnd},
		{Time: 500, Seq: 5, PID: 9, Kind: trace.KindTimerCBStart},
		{Time: 900, Seq: 6, PID: 9, Kind: trace.KindTimerCBEnd},
		// Take with no source timestamp: no latency sample.
		{Time: 950, Seq: 7, PID: 7, Kind: trace.KindTakeRequest, Topic: "/srv", SrcTS: 0},
		// CB end with no open start: ignored.
		{Time: 960, Seq: 8, PID: 11, Kind: trace.KindSubCBEnd},
	}
	for _, e := range evs {
		s.Observe(e)
	}
	if s.Events() != uint64(len(evs)) {
		t.Fatalf("Events() = %d, want %d", s.Events(), len(evs))
	}
	if v, ok := r.Value("rostracer_events_total", trace.KindTakeInt.String()); !ok || v != 1 {
		t.Fatalf("events_total{P6} = %v,%v", v, ok)
	}
	if v, ok := r.Value("rostracer_events_total", ""); !ok || v != float64(len(evs)) {
		t.Fatalf("events_total sum = %v,%v", v, ok)
	}
	// Publish latency: one sample on /img of 150-50=100ns, none on /srv.
	if v, ok := r.Value("rostracer_publish_latency_ns", "/img"); !ok || v != 1 {
		t.Fatalf("publish_latency{/img} count = %v,%v", v, ok)
	}
	if _, ok := r.Value("rostracer_publish_latency_ns", "/srv"); ok {
		t.Fatal("latency sample recorded for SrcTS=0 take")
	}
	if h := s.topicHist["/img"]; h.Sum() != 100 {
		t.Fatalf("latency sum = %d, want 100", h.Sum())
	}
	// Exec time: camera (PID 7) 400-100=300; PID 9 has no P1 -> "unknown".
	if h := s.nodeHist["camera"]; h == nil || h.Count() != 1 || h.Sum() != 300 {
		t.Fatalf("exec{camera} = %+v", h)
	}
	if h := s.nodeHist["unknown"]; h == nil || h.Count() != 1 || h.Sum() != 400 {
		t.Fatalf("exec{unknown} = %+v", h)
	}

	// The exposition of all of this stays parseable.
	if _, err := ParseExposition(r.Exposition()); err != nil {
		t.Fatalf("exposition unparseable: %v", err)
	}
}

func TestSinkExecTimeUsesSimTime(t *testing.T) {
	// Guard the sim.Time -> int64 conversions stay in nanoseconds.
	r := NewRegistry()
	s := NewSink(r)
	start := sim.Time(1_000_000)
	s.Observe(trace.Event{Time: start, PID: 1, Kind: trace.KindTimerCBStart})
	s.Observe(trace.Event{Time: start + 2_000_000, PID: 1, Kind: trace.KindTimerCBEnd})
	if h := s.nodeHist["unknown"]; h == nil || h.Sum() != 2_000_000 {
		t.Fatalf("exec sum = %+v, want 2ms", h)
	}
}

// TestSinkDetachesOnUnorderedStream checks the sink's order contract: on
// the first event that goes back in (Time, Seq) it fails with a sticky
// trace.ErrUnordered and ignores every later event, and an
// IsolatingMultiSink detaches it having delivered exactly the ordered
// prefix.
func TestSinkDetachesOnUnorderedStream(t *testing.T) {
	r := NewRegistry()
	s := NewSink(r)
	evs := []trace.Event{
		{Time: 10, Seq: 1, PID: 7, Kind: trace.KindCreateNode, Node: "camera"},
		{Time: 100, Seq: 2, PID: 7, Kind: trace.KindSubCBStart},
		{Time: 150, Seq: 3, PID: 7, Kind: trace.KindTakeInt, Topic: "/img", SrcTS: 50},
		{Time: 150, Seq: 3, PID: 7, Kind: trace.KindDDSWrite, Topic: "/out", SrcTS: 150}, // equal key: in order
		{Time: 400, Seq: 5, PID: 7, Kind: trace.KindSubCBEnd},
		// Back in Seq at the same time: the first unordered event.
		{Time: 400, Seq: 4, PID: 7, Kind: trace.KindSubCBStart},
		// Forward again, but after the failure: ignored.
		{Time: 500, Seq: 6, PID: 7, Kind: trace.KindTakeInt, Topic: "/img", SrcTS: 450},
		{Time: 900, Seq: 7, PID: 7, Kind: trace.KindSubCBEnd},
	}
	const ordered = 5
	var all trace.Collector
	fan := trace.NewIsolatingMultiSink()
	fan.Add("all", &all)
	fan.Add("metrics", s)
	for _, e := range evs {
		fan.Observe(e)
	}
	if !errors.Is(s.Err(), trace.ErrUnordered) {
		t.Fatalf("sink error %v, want trace.ErrUnordered", s.Err())
	}
	det := fan.Detached()
	if len(det) != 1 || det[0].Name != "metrics" || det[0].Events != ordered || !errors.Is(det[0].Err, trace.ErrUnordered) {
		t.Fatalf("detachments %+v, want metrics after %d events with trace.ErrUnordered", det, ordered)
	}
	if fan.Live() != 1 || len(all.Trace.Events) != len(evs) {
		t.Fatalf("%d sinks live, collector got %d of %d events", fan.Live(), len(all.Trace.Events), len(evs))
	}
	// Only the ordered prefix was folded, and later events stay ignored.
	s.Observe(trace.Event{Time: 1000, Seq: 8, PID: 7, Kind: trace.KindTakeInt, Topic: "/img", SrcTS: 900})
	if s.Events() != ordered {
		t.Fatalf("sink folded %d events, want the %d-event ordered prefix", s.Events(), ordered)
	}
	if h := s.topicHist["/img"]; h == nil || h.Count() != 1 || h.Sum() != 100 {
		t.Fatalf("latency{/img} = %+v, want the one ordered sample of 100ns", h)
	}
	if h := s.nodeHist["camera"]; h == nil || h.Count() != 1 || h.Sum() != 300 {
		t.Fatalf("exec{camera} = %+v, want the one ordered instance of 300ns", h)
	}
	if !errors.Is(s.Err(), trace.ErrUnordered) {
		t.Fatal("order error not sticky")
	}
}

// pinRegistry builds one registry of every kind, labeled and unlabeled,
// with cells created out of label order, so the exposition's sorting
// and per-kind rendering are both exercised.
func pinRegistry() *Registry {
	r := NewRegistry()
	r.Counter("z_events_total", "events seen").Set(42)
	lost := r.CounterVec("lost_total", "records lost", "cpu")
	lost.With("3").Set(7)
	lost.With("1").Set(2)
	lost.With("10").Set(1)
	r.Gauge("backlog", "ring backlog").Set(-4)
	fill := r.GaugeVec("fill_bytes", "ring fill", "cpu")
	fill.With("b").Set(30)
	fill.With("a").Set(-5)
	fill.With(`q"\`).Set(1)
	r.HistogramVec("drain_ns", "drain period", "", []int64{10, 100}).With("").Observe(50)
	lat := r.HistogramVec("lat_ns", "latency", "topic", []int64{10, 100})
	lat.With("/b").Observe(5)
	lat.With("/b").Observe(500)
	lat.With("/a").Observe(10)
	lat.With("/a").Observe(11)
	lat.With("/a").Observe(100)
	r.CounterVec("unused_total", "never materialized", "cpu")
	return r
}

func TestRegistryExpositionPin(t *testing.T) {
	r := pinRegistry()
	want := `# HELP backlog ring backlog
# TYPE backlog gauge
backlog -4
# HELP drain_ns drain period
# TYPE drain_ns histogram
drain_ns_bucket{le="10"} 0
drain_ns_bucket{le="100"} 1
drain_ns_bucket{le="+Inf"} 1
drain_ns_sum 50
drain_ns_count 1
# HELP fill_bytes ring fill
# TYPE fill_bytes gauge
fill_bytes{cpu="a"} -5
fill_bytes{cpu="b"} 30
fill_bytes{cpu="q\"\\"} 1
# HELP lat_ns latency
# TYPE lat_ns histogram
lat_ns_bucket{topic="/a",le="10"} 1
lat_ns_bucket{topic="/a",le="100"} 3
lat_ns_bucket{topic="/a",le="+Inf"} 3
lat_ns_sum{topic="/a"} 121
lat_ns_count{topic="/a"} 3
lat_ns_bucket{topic="/b",le="10"} 1
lat_ns_bucket{topic="/b",le="100"} 1
lat_ns_bucket{topic="/b",le="+Inf"} 2
lat_ns_sum{topic="/b"} 505
lat_ns_count{topic="/b"} 2
# HELP lost_total records lost
# TYPE lost_total counter
lost_total{cpu="1"} 2
lost_total{cpu="10"} 1
lost_total{cpu="3"} 7
# HELP z_events_total events seen
# TYPE z_events_total counter
z_events_total 42
`
	if got := r.Exposition(); got != want {
		t.Fatalf("exposition moved:\n%s", got)
	}
	for _, c := range []struct {
		name, label string
		v           float64
		ok          bool
	}{
		{"fill_bytes", "b", 30, true},
		{"fill_bytes", "", 26, true},
		{"fill_bytes", "zz", 0, false},
		{"lat_ns", "/a", 3, true},
		{"lat_ns", "", 5, true},
		{"lat_ns", "/c", 0, false},
		{"drain_ns", "", 1, true},
		{"backlog", "", -4, true},
		{"lost_total", "", 10, true},
		{"unused_total", "", 0, false},
	} {
		if v, ok := r.Value(c.name, c.label); v != c.v || ok != c.ok {
			t.Errorf("Value(%s, %q) = %v,%v want %v,%v", c.name, c.label, v, ok, c.v, c.ok)
		}
	}
}
