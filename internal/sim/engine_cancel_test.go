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
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(MaxTime)
	if !fired {
		t.Fatal("stale Cancel killed the slot's new occupant")
	}
}

func TestEngineCancelAfterCancelSparesSlotReuse(t *testing.T) {
	e := NewEngine()
	id := e.At(10, func() { t.Error("cancelled event fired") })
	e.Cancel(id)
	e.Cancel(id) // twice: still one cancellation
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after double cancel", e.Pending())
	}
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
// cancelled IDs alike) / Step sequences against a plain sorted-list model
// of the queue and requires the same firing order and Pending counts.
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
				// The model's next event: earliest (at, seq) still queued.
				var live []*modelEvent
				for _, ev := range model {
					if !ev.done {
						live = append(live, ev)
					}
				}
				sort.Slice(live, func(i, j int) bool {
					if live[i].at != live[j].at {
						return live[i].at < live[j].at
					}
					return live[i].seq < live[j].seq
				})
				want := -1
				for _, ev := range live {
					ev.done = true
					if !ev.dead {
						want = ev.seq
						break
					}
				}
				n := len(fired)
				ran := e.Step()
				if ran != (want >= 0) || (ran && fired[n] != want) {
					t.Fatalf("seed %d op %d: Step ran=%v fired=%v, model wants %d", seed, op, ran, fired[n:], want)
				}
			}
			pending := 0
			for _, ev := range model {
				if !ev.done && !ev.dead {
					pending++
				}
			}
			if e.Pending() != pending {
				t.Fatalf("seed %d op %d: Pending %d, model %d", seed, op, e.Pending(), pending)
			}
		}
	}
}
