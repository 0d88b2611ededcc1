package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// The digests below were recorded with the scan-and-sort scheduler and
// the container/heap event queue. The run queue and the typed event
// heap order threads and events by the same total orders, so every
// byte downstream of the scheduler must be unchanged.
const (
	// sched_switch + sched_wakeup events of the busy-host overheads world
	// (SYN + AVP + 24 chatter threads), unfiltered kernel tracer.
	pinSchedStream = "424d5e51a10a0383f38d3aeb8a6000bd90caa4de91805a6be34fbcafc8b07068"
	// OverheadsExperiment's figure text at TestOverheadsExperiment's
	// config.
	pinOverheadsText = "8e8bb84cc0fe332d49d103b4fc85a658252eb7485bdae00e3a9463b250c9b84e"
)

// schedHasher folds every scheduler event of a merged stream into a
// digest, in stream order.
type schedHasher struct {
	h      hash.Hash
	events int
}

func (s *schedHasher) Observe(e trace.Event) {
	if e.Kind != trace.KindSchedSwitch && e.Kind != trace.KindSchedWakeup {
		return
	}
	s.events++
	fmt.Fprintf(s.h, "%d %d %d %d %d %d %d %d %d %d\n", e.Time, e.Seq, e.Kind, e.PID,
		e.CPU, e.PrevPID, e.PrevPrio, e.PrevState, e.NextPID, e.NextPrio)
}

func TestSchedStreamBytePin(t *testing.T) {
	busyHost := func(w *rclcpp.World) {
		BuildBoth(1)(w)
		SpawnChatter(w, 24, 2*sim.Millisecond)
	}
	sh := &schedHasher{h: sha256.New()}
	if _, err := RunSession(3, 12, 10*sim.Second, false, busyHost, sh); err != nil {
		t.Fatal(err)
	}
	if sh.events == 0 {
		t.Fatal("no scheduler events traced")
	}
	if got := hex.EncodeToString(sh.h.Sum(nil)); got != pinSchedStream {
		t.Fatalf("sched event stream digest %s over %d events, want %s", got, sh.events, pinSchedStream)
	}
}

func TestOverheadsTextBytePin(t *testing.T) {
	r, err := OverheadsExperiment(Config{Runs: 1, Duration: 10 * sim.Second, CPUs: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(r.Text))
	if got := hex.EncodeToString(sum[:]); got != pinOverheadsText {
		t.Fatalf("overheads figure text digest %s, want %s; text:\n%s", got, pinOverheadsText, r.Text)
	}
}
