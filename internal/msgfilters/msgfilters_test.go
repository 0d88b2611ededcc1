package msgfilters_test

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/msgfilters"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
)

func sample(ts sim.Time) *dds.Sample { return &dds.Sample{SrcTS: ts} }

func TestExactTimePolicy(t *testing.T) {
	q := [][]*dds.Sample{
		{sample(100)},
		{sample(100)},
	}
	if _, ok := (msgfilters.ExactTime{}).TryMatch(q); !ok {
		t.Fatal("equal timestamps did not match")
	}
	q = [][]*dds.Sample{
		{sample(100)},
		{sample(101)},
	}
	if _, ok := (msgfilters.ExactTime{}).TryMatch(q); ok {
		t.Fatal("unequal timestamps matched under exact policy")
	}
}

func TestApproximateTimeWithinSlop(t *testing.T) {
	p := msgfilters.ApproximateTime{Slop: 10}
	q := [][]*dds.Sample{
		{sample(100)},
		{sample(108)},
	}
	picks, ok := p.TryMatch(q)
	if !ok || len(picks) != 2 {
		t.Fatalf("match failed: %v %v", picks, ok)
	}
}

func TestApproximateTimeDropsStaleHeads(t *testing.T) {
	p := msgfilters.ApproximateTime{Slop: 10}
	q := [][]*dds.Sample{
		{sample(50), sample(100)}, // 50 is stale relative to 105
		{sample(105)},
	}
	picks, ok := p.TryMatch(q)
	if !ok {
		t.Fatalf("no match after dropping stale head; queues %v", q)
	}
	if q[0][picks[0]].SrcTS != 100 {
		t.Fatalf("matched stale sample: %v", q[0][picks[0]].SrcTS)
	}
}

func TestApproximateTimeEmptyQueueNoMatch(t *testing.T) {
	p := msgfilters.ApproximateTime{Slop: 10}
	q := [][]*dds.Sample{
		{sample(100)},
		{},
	}
	if _, ok := p.TryMatch(q); ok {
		t.Fatal("matched with an empty queue")
	}
}

func TestSynchronizerRequiresTwoTopics(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	n := w.NewNode("n", 5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for single-topic synchronizer")
		}
	}()
	msgfilters.New(n, msgfilters.Config{Topics: []string{"/only"}})
}

func TestSynchronizerFusionOnCompletingArrival(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1,
		DDSLatency: sim.Constant{Value: 10 * sim.Microsecond}})
	w.RecordTruth()
	src := w.NewNode("src", 5, 0)
	pa := src.CreatePublisher("/a")
	pb := src.CreatePublisher("/b")
	// /a publishes at 10ms, /b at 25ms: /b always completes the pair.
	src.CreateTimer(50*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: 10 * sim.Microsecond},
		Action: func(*rclcpp.CallbackContext) { pa.Publish("a") },
	})
	src.CreateTimer(50*sim.Millisecond, 15*sim.Millisecond, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: 10 * sim.Microsecond},
		Action: func(*rclcpp.CallbackContext) { pb.Publish("b") },
	})

	fusion := w.NewNode("fusion", 5, 0)
	fused := 0
	var lastSet []*dds.Sample
	sync := msgfilters.New(fusion, msgfilters.Config{
		Topics:  []string{"/a", "/b"},
		Policy:  msgfilters.ApproximateTime{Slop: 30 * sim.Millisecond},
		FusedET: sim.Constant{Value: sim.Millisecond},
		Fused: func(fc *msgfilters.FusedContext) {
			fused++
			lastSet = fc.Set
		},
	})
	w.Run(500 * sim.Millisecond)

	if fused < 9 {
		t.Fatalf("fused %d times", fused)
	}
	if sync.Matches() != uint64(fused) {
		t.Fatalf("matches %d != fused %d", sync.Matches(), fused)
	}
	if len(lastSet) != 2 || lastSet[0].Topic != "/a" || lastSet[1].Topic != "/b" {
		// Samples carry topic names when delivered through real writers.
		t.Logf("set topics: %v %v", lastSet[0].Topic, lastSet[1].Topic)
	}
	// The ground truth shows the fusion ET landed on the /b subscriber's
	// instances (the completing side).
	var bTruth, aTruth int
	for _, tr := range w.Truth() {
		if tr.PID != fusion.PID() {
			continue
		}
		switch {
		case tr.Designed >= sim.Millisecond:
			bTruth++
		default:
			aTruth++
		}
	}
	if bTruth != fused {
		t.Errorf("fusion cost landed on %d instances, want %d", bTruth, fused)
	}
	if aTruth == 0 {
		t.Error("no cheap read instances observed")
	}
}

func TestSynchronizerMismatchedReadETPanics(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	n := w.NewNode("n", 5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched ReadET length")
		}
	}()
	msgfilters.New(n, msgfilters.Config{
		Topics: []string{"/a", "/b"},
		ReadET: []sim.Distribution{sim.Constant{Value: 1}},
	})
}

func TestThreeWaySynchronization(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1,
		DDSLatency: sim.Constant{Value: 10 * sim.Microsecond}})
	src := w.NewNode("src", 5, 0)
	pubs := []*rclcpp.Publisher{
		src.CreatePublisher("/s0"), src.CreatePublisher("/s1"), src.CreatePublisher("/s2"),
	}
	src.CreateTimer(100*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET: sim.Constant{Value: 10 * sim.Microsecond},
		Action: func(*rclcpp.CallbackContext) {
			for _, p := range pubs {
				p.Publish(nil)
			}
		},
	})
	fusion := w.NewNode("fusion", 5, 0)
	sets := 0
	msgfilters.New(fusion, msgfilters.Config{
		Topics: []string{"/s0", "/s1", "/s2"},
		Fused: func(fc *msgfilters.FusedContext) {
			if len(fc.Set) != 3 {
				t.Errorf("set size %d", len(fc.Set))
			}
			sets++
		},
	})
	w.Run(1050 * sim.Millisecond)
	if sets != 10 {
		t.Fatalf("sets = %d, want 10", sets)
	}
}
