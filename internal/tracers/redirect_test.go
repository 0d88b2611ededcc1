package tracers

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// TestRedirectBaselineComparison reproduces the Sec. II-B argument: the
// LD_PRELOAD-redirection baseline captures the same event stream but at a
// substantially higher per-event cost than the eBPF probes.
func TestRedirectBaselineComparison(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 8})
	b, err := NewBundle(w.Runtime())
	if err != nil {
		t.Fatal(err)
	}
	BridgeSched(w.Machine(), w.Runtime())
	if err := b.StartRT(); err != nil {
		t.Fatal(err)
	}
	var col trace.Collector
	redirect := NewRedirectTracer(w.Runtime(), &col)
	redirect.Start()

	n := w.NewNode("n", 5, 0)
	pub := n.CreatePublisher("/x")
	n.CreateTimer(10*sim.Millisecond, 0, rclcpp.SimpleBody{
		ET:     sim.Constant{Value: sim.Millisecond},
		Action: func(*rclcpp.CallbackContext) { pub.Publish(1) },
	})
	s := w.NewNode("s", 5, 0)
	s.CreateSubscription("/x", rclcpp.SimpleBody{ET: sim.Constant{Value: sim.Millisecond}})
	w.Run(2 * sim.Second)

	ebpfTrace := drainTrace(t, b)

	// Same observable stream: both see every timer start, take and write.
	count := func(evs []trace.Event, k trace.Kind) int {
		n := 0
		for _, e := range evs {
			if e.Kind == k {
				n++
			}
		}
		return n
	}
	for _, k := range []trace.Kind{trace.KindTimerCBStart, trace.KindTakeInt, trace.KindDDSWrite} {
		if got, want := count(col.Trace.Events, k), count(ebpfTrace.Events, k); got != want {
			t.Errorf("%v: redirect saw %d, eBPF saw %d", k, got, want)
		}
	}
	// The redirect tracer reads the same topic names (it is the shim).
	foundTopic := false
	for _, e := range col.Trace.Events {
		if e.Kind == trace.KindTakeInt && e.Topic == "/x" {
			foundTopic = true
		}
	}
	if !foundTopic {
		t.Error("redirect tracer did not capture topic names")
	}

	// ... but at a much higher per-event cost.
	ebpfCost := w.Runtime().CostNs()
	redirCost := redirect.CostNs()
	if redirCost <= ebpfCost {
		t.Fatalf("redirection cost %.0f ns not above eBPF cost %.0f ns", redirCost, ebpfCost)
	}
	perEventRedirect := redirCost / float64(len(col.Trace.Events))
	if perEventRedirect < 1000 {
		t.Errorf("per-event redirect cost %.0f ns implausibly low", perEventRedirect)
	}
}
