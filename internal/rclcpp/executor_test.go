package rclcpp

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/sim"
)

// TestExecutorQueueKeepsOrderAndCapacity drives one subscriber with equal
// bursts of arrivals that land while its long callbacks run, the second
// burst of each period before the first has drained. Messages must be
// handled in arrival order, and the FIFO must reuse its backing array:
// its capacity after 100 periods is what it was after the first.
func TestExecutorQueueKeepsOrderAndCapacity(t *testing.T) {
	const (
		burst   = 8
		periods = 100
		period  = 8 * sim.Millisecond
	)
	w := NewWorld(Config{NumCPUs: 2, Seed: 1, DDSLatency: sim.Constant{Value: 50 * sim.Microsecond}})
	n := w.NewNode("sub", 5, 0)
	var handled []int
	n.CreateSubscription("/x", BodyFunc(func(ctx *CallbackContext) (sim.Duration, Action) {
		handled = append(handled, ctx.Sample.Payload.(int))
		return 400 * sim.Microsecond, nil
	}))
	pid, space := w.NewExternalProcess()
	wr := w.Domain().CreateWriter(pid, space, "/x")
	next := 0
	publish := func() {
		for i := 0; i < burst; i++ {
			wr.Write(next, 0, 0)
			next++
		}
	}
	for p := 0; p < periods; p++ {
		at := sim.Time(sim.Duration(p) * period)
		w.Engine().At(at, publish)
		w.Engine().At(at.Add(sim.Millisecond), publish) // mid-drain
	}

	w.Run(period)
	firstCap := cap(n.exec.queue.items)
	if firstCap == 0 || len(handled) != 2*burst {
		t.Fatalf("after one period: %d handled, queue capacity %d", len(handled), firstCap)
	}
	w.Run((periods - 1) * period)

	if len(handled) != 2*burst*periods {
		t.Fatalf("handled %d messages, want %d", len(handled), 2*burst*periods)
	}
	for i, v := range handled {
		if v != i {
			t.Fatalf("message %d handled at position %d: arrival order broken", v, i)
		}
	}
	if c := cap(n.exec.queue.items); c != firstCap {
		t.Fatalf("queue capacity moved from %d to %d over %d equal periods", firstCap, c, periods)
	}
}
