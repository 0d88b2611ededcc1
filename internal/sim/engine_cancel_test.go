package sim

import (
	"sort"
	"testing"
)

func TestEngineCancelAfterFireSparesSlotReuse(t *testing.T) {
	e := NewEngine()
	first := e.At(10, func() {})
	e.Run(MaxTime)
	fired := false
	second := e.At(20, func() { fired = true })
	if second.slot != first.slot {
		t.Fatalf("slot not recycled: %d then %d", first.slot, second.slot)
	}
	e.Cancel(first) // already fired: must not touch the slot's new occupant
	e.Run(MaxTime)
	if !fired {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
}

func TestEngineCancelAfterCancelSparesSlotReuse(t *testing.T) {
	e := NewEngine()
	id := e.At(10, func() { t.Error("cancelled event fired") })
	e.Cancel(id)
	e.Cancel(id)   // twice: still one cancellation
	e.Run(MaxTime) // pops the dead event, freeing its slot
	fired := false
	e.At(20, func() { fired = true })
	e.Cancel(id)
	e.Run(MaxTime)
	if !fired {
		t.Fatal("stale Cancel of a cancelled event killed the slot's new occupant")
	}
}

func TestEngineCancelOwnIDInsideCallback(t *testing.T) {
	e := NewEngine()
	var self EventID
	fired := false
	self = e.At(5, func() {
		// The running event's slot is already free: the event scheduled
		// here reuses it, and cancelling the running event's ID is a no-op.
		e.At(6, func() { fired = true })
		e.Cancel(self)
	})
	e.Run(MaxTime)
	if !fired {
		t.Fatal("cancelling the running event killed its slot's next occupant")
	}
}

func TestEngineCancelZeroID(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(1, func() { fired = true })
	e.Cancel(EventID{})
	e.Run(MaxTime)
	if !fired {
		t.Fatal("zero EventID cancelled a live event")
	}
}

// TestEngineMatchesModel runs random At / Cancel (live, fired and
// cancelled IDs alike) / Run-to-horizon sequences against a plain list
// model of the queue and requires the same firing order.
func TestEngineMatchesModel(t *testing.T) {
	type modelEvent struct {
		at   Time
		seq  int
		dead bool
		done bool
	}
	for seed := uint64(1); seed <= 50; seed++ {
		r := NewRNG(seed)
		e := NewEngine()
		var model []*modelEvent
		var ids []EventID
		var fired []int
		// run advances engine and model to horizon: every queued live
		// event at or before it fires, in (at, seq) order.
		run := func(op int, horizon Time) {
			var due []*modelEvent
			for _, ev := range model {
				if !ev.done && ev.at <= horizon {
					ev.done = true
					if !ev.dead {
						due = append(due, ev)
					}
				}
			}
			sort.Slice(due, func(i, j int) bool {
				if due[i].at != due[j].at {
					return due[i].at < due[j].at
				}
				return due[i].seq < due[j].seq
			})
			n := len(fired)
			e.Run(horizon)
			if len(fired)-n != len(due) {
				t.Fatalf("seed %d op %d: Run(%v) fired %v, model wants %d events", seed, op, horizon, fired[n:], len(due))
			}
			for i, ev := range due {
				if fired[n+i] != ev.seq {
					t.Fatalf("seed %d op %d: Run(%v) fired %v, model wants %d at %d", seed, op, horizon, fired[n:], ev.seq, i)
				}
			}
		}
		for op := 0; op < 400; op++ {
			switch x := r.Intn(10); {
			case x < 5:
				seq := len(model)
				ev := &modelEvent{at: e.Now() + Time(r.Intn(20)), seq: seq}
				model = append(model, ev)
				ids = append(ids, e.At(ev.at, func() { fired = append(fired, seq) }))
			case x < 7 && len(ids) > 0:
				i := r.Intn(len(ids))
				e.Cancel(ids[i])
				if !model[i].done {
					model[i].dead = true
				}
			default:
				run(op, e.Now()+Time(r.Intn(10)))
			}
		}
		run(400, MaxTime)
	}
}
