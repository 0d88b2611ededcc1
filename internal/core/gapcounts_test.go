package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/tracesynth/rostracer/internal/sim"
)

// gapCountsMismatch adds ds to an empty multiset and describes how it
// disagrees with the sort-based oracle, or returns "": the upper median
// must match, and the multiset must hold each distinct value once,
// ascending, with counts summing to its size.
func gapCountsMismatch(ds []sim.Duration) string {
	var s gapCounts
	for _, d := range ds {
		s.add(d)
	}
	if got, want := s.upperMedian(), sortedUpperMedian(ds); got != want {
		return fmt.Sprintf("%v: upper median %v, sort gives %v", ds, got, want)
	}
	total := 0
	for i, c := range s.vals {
		if c.n <= 0 || (i > 0 && s.vals[i-1].d >= c.d) {
			return fmt.Sprintf("%v: entries not distinct ascending with positive counts: %v", ds, s.vals)
		}
		total += c.n
	}
	if total != len(ds) || s.n != len(ds) {
		return fmt.Sprintf("%v: counts sum to %d, n = %d", ds, total, s.n)
	}
	return ""
}

func TestGapCountsUpperMedianCases(t *testing.T) {
	for _, ds := range [][]sim.Duration{
		nil,
		{5},
		{5, 3},          // even: element 1 of [3 5]
		{3, 5, 4},       // odd
		{7, 7, 7, 7},    // one distinct value
		{2, 9, 2, 9},    // two distinct values, even count
		{9, 2, 9, 2, 2}, // two distinct values, odd count
		{-4, 0, 8, -4},  // non-positive gaps
	} {
		if msg := gapCountsMismatch(ds); msg != "" {
			t.Error(msg)
		}
	}
}

// TestGapCountsMatchesSortProperty compares the multiset's upper median
// with the sort-based oracle on random inputs: mod == 0 keeps the raw
// values (many distinct), otherwise they are folded onto mod%8+1
// distinct values (few distinct, many repeats).
func TestGapCountsMatchesSortProperty(t *testing.T) {
	f := func(xs []uint32, mod uint8) bool {
		ds := make([]sim.Duration, len(xs))
		for i, x := range xs {
			if mod != 0 {
				x %= uint32(mod%8) + 1
			}
			ds[i] = sim.Duration(x)
		}
		if msg := gapCountsMismatch(ds); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestGapCountsBounded checks that memory follows the distinct values,
// not the values added.
func TestGapCountsBounded(t *testing.T) {
	var s gapCounts
	for i := 0; i < 100_000; i++ {
		s.add(sim.Duration(1000 + i%4))
	}
	if len(s.vals) != 4 || s.n != 100_000 {
		t.Fatalf("%d entries over %d adds, want 4 over 100000", len(s.vals), s.n)
	}
	if got := s.upperMedian(); got != 1002 {
		t.Fatalf("upper median %v, want 1002", got)
	}
}
