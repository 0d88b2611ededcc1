package ebpf

import "testing"

func TestEmitFaultDropsCountAsLost(t *testing.T) {
	pb := NewPerfBuffer("tr_test", 0, new(uint64))
	drop := false
	var hookCPUs []int
	pb.SetEmitFault(func(cpu int) bool {
		hookCPUs = append(hookCPUs, cpu)
		return drop
	})

	pb.Emit(0, 10, []byte{1})
	drop = true
	pb.Emit(0, 20, []byte{2})
	pb.Emit(1, 30, []byte{3})
	drop = false
	pb.Emit(1, 40, []byte{4})

	if got := totals(pb).Lost; got != 2 {
		t.Fatalf("lost = %d, want 2 forced drops", got)
	}
	if pb.Ring(0).Lost != 1 || pb.Ring(1).Lost != 1 {
		t.Fatalf("per-CPU lost = %d/%d, want 1/1", pb.Ring(0).Lost, pb.Ring(1).Lost)
	}
	if len(ringRecords(pb, 0)) != 1 || len(ringRecords(pb, 1)) != 1 {
		t.Fatal("surviving emissions not in the rings")
	}
	// The hook sees the resolved CPU of every emission, including ones it
	// lets through.
	if len(hookCPUs) != 4 {
		t.Fatalf("hook consulted %d times, want 4", len(hookCPUs))
	}

	// Removing the hook restores pass-through.
	pb.SetEmitFault(nil)
	pb.Emit(0, 50, []byte{5})
	if totals(pb).Lost != 2 || len(ringRecords(pb, 0)) != 1 {
		t.Fatal("nil hook still dropping")
	}
}

func TestEmitFaultDropsDoNotConsumeCapacity(t *testing.T) {
	pb := NewPerfBuffer("tr_cap", 2, new(uint64))
	n := 0
	// Drop every other emission.
	pb.SetEmitFault(func(int) bool { n++; return n%2 == 0 })
	for i := 0; i < 6; i++ {
		pb.Emit(0, int64(i), []byte{byte(i)})
	}
	// Emissions 2, 4, 6 forced lost; 1, 3 fill capacity; 5 overruns.
	if got := totals(pb).Lost; got != 4 {
		t.Fatalf("lost = %d, want 3 forced + 1 overrun", got)
	}
	if got := len(ringRecords(pb, 0)); got != 2 {
		t.Fatalf("ring held %d records, want capacity 2", got)
	}
}
