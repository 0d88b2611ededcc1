package rclcpp_test

import (
	"testing"

	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sched"
	"github.com/tracesynth/rostracer/internal/sim"
)

func TestNodeCreationAssignsDistinctPIDsAndSpaces(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	a := w.NewNode("a", 5, 0)
	b := w.NewNode("b", 5, 0)
	if a.PID() == b.PID() {
		t.Fatal("duplicate PIDs")
	}
	if a.Space() == b.Space() {
		t.Fatal("shared address space")
	}
	if w.NodeByName("a") != a || w.NodeByName("missing") != nil {
		t.Fatal("NodeByName broken")
	}
}

func TestDuplicateNodeNamePanics(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	w.NewNode("dup", 5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for duplicate node name")
		}
	}()
	w.NewNode("dup", 5, 0)
}

func TestTimerPeriodAndPhase(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	n := w.NewNode("n", 5, 0)
	var fires []sim.Time
	n.CreateTimer(50*sim.Millisecond, 20*sim.Millisecond, rclcpp.BodyFunc(
		func(ctx *rclcpp.CallbackContext) (sim.Duration, rclcpp.Action) {
			fires = append(fires, ctx.Time)
			return sim.Millisecond, nil
		}))
	w.Run(300 * sim.Millisecond)
	// First expiry at phase+period = 70ms, then every 50ms.
	want := []sim.Time{
		sim.Time(70 * sim.Millisecond), sim.Time(120 * sim.Millisecond),
		sim.Time(170 * sim.Millisecond), sim.Time(220 * sim.Millisecond),
		sim.Time(270 * sim.Millisecond),
	}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v", fires)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Errorf("fire %d at %v, want %v", i, fires[i], want[i])
		}
	}
}

func TestZeroPeriodTimerPanics(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	n := w.NewNode("n", 5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero period")
		}
	}()
	n.CreateTimer(0, 0, rclcpp.SimpleBody{})
}

func TestSingleThreadedExecutorSerializesCallbacks(t *testing.T) {
	// Two timers on one node expiring simultaneously must run one after
	// the other (Sec. II-A executor model), even with idle CPUs.
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 1})
	n := w.NewNode("n", 5, 0)
	type span struct{ s, e sim.Time }
	var spans []span
	mk := func() rclcpp.Body {
		return rclcpp.BodyFunc(func(ctx *rclcpp.CallbackContext) (sim.Duration, rclcpp.Action) {
			start := ctx.Time
			return 5 * sim.Millisecond, func(c *rclcpp.CallbackContext) {
				spans = append(spans, span{start, c.Node.World().Engine().Now()})
			}
		})
	}
	n.CreateTimer(100*sim.Millisecond, 0, mk())
	n.CreateTimer(100*sim.Millisecond, 0, mk())
	w.Run(150 * sim.Millisecond)
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	// No overlap.
	if spans[0].e > spans[1].s && spans[1].e > spans[0].s {
		t.Fatalf("callbacks overlapped: %v", spans)
	}
}

func TestNodesRunInParallelOnDifferentCPUs(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	var ends []sim.Time
	for _, name := range []string{"a", "b"} {
		n := w.NewNode(name, 5, 0)
		n.CreateTimer(10*sim.Millisecond, 0, rclcpp.BodyFunc(
			func(ctx *rclcpp.CallbackContext) (sim.Duration, rclcpp.Action) {
				return 8 * sim.Millisecond, func(c *rclcpp.CallbackContext) {
					ends = append(ends, c.Node.World().Engine().Now())
				}
			}))
	}
	w.Run(19 * sim.Millisecond)
	if len(ends) != 2 {
		t.Fatalf("ends = %v", ends)
	}
	// Both finish at 18ms: parallel, not serialized.
	for _, e := range ends {
		if e != sim.Time(18*sim.Millisecond) {
			t.Fatalf("ends = %v, want both 18ms", ends)
		}
	}
}

func TestGroundTruthRecorded(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	w.RecordTruth()
	n := w.NewNode("n", 5, 0)
	n.CreateTimer(10*sim.Millisecond, 0, rclcpp.SimpleBody{ET: sim.Constant{Value: 2 * sim.Millisecond}})
	w.Run(55 * sim.Millisecond)
	truth := w.Truth()
	if len(truth) != 5 {
		t.Fatalf("truth records = %d", len(truth))
	}
	for _, tr := range truth {
		if tr.PID != n.PID() || tr.Designed != 2*sim.Millisecond {
			t.Fatalf("truth record %+v", tr)
		}
	}
}

func TestServiceRoundTripPayload(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 4, Seed: 1})
	server := w.NewNode("server", 5, 0)
	server.CreateService("add_one", sim.Constant{Value: sim.Millisecond},
		func(ctx *rclcpp.CallbackContext) interface{} {
			return ctx.Sample.Payload.(int) + 1
		})
	client := w.NewNode("client", 5, 0)
	var got []int
	cl := client.CreateClient("add_one", rclcpp.BodyFunc(
		func(ctx *rclcpp.CallbackContext) (sim.Duration, rclcpp.Action) {
			got = append(got, ctx.Sample.Payload.(int))
			return sim.Millisecond, nil
		}))
	client.CreateTimer(20*sim.Millisecond, 0, rclcpp.BodyFunc(
		func(ctx *rclcpp.CallbackContext) (sim.Duration, rclcpp.Action) {
			return 100 * sim.Microsecond, func(*rclcpp.CallbackContext) { cl.Call(41) }
		}))
	w.Run(100 * sim.Millisecond)
	if len(got) < 3 {
		t.Fatalf("responses = %v", got)
	}
	for _, v := range got {
		if v != 42 {
			t.Fatalf("response payload %d, want 42", v)
		}
	}
}

func TestExternalProcessNotTracedAsNode(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	pid, space := w.NewExternalProcess()
	if pid == 0 || space == nil {
		t.Fatal("bad external process")
	}
	n := w.NewNode("real", 5, 0)
	if pid == n.PID() {
		t.Fatal("external PID collides with node PID")
	}
	// External PIDs are small; machine PIDs start at 1000.
	if pid >= 1000 {
		t.Fatalf("external pid %d in machine range", pid)
	}
}

func TestAffinityAndPriorityPlumbed(t *testing.T) {
	w := rclcpp.NewWorld(rclcpp.Config{NumCPUs: 2, Seed: 1})
	n := w.NewNode("pinned", 7, sched.AffinityCPU(1))
	if n.Thread().Priority() != 7 {
		t.Errorf("priority = %d", n.Thread().Priority())
	}
	if n.Thread().Affinity() != sched.AffinityCPU(1) {
		t.Errorf("affinity = %#x", n.Thread().Affinity())
	}
}
