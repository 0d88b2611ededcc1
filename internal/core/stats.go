// Package core implements the paper's timing-model synthesis: Algorithm 1
// (callback-attribute extraction from merged ROS2 + scheduler traces),
// Algorithm 2 (execution-time measurement), and the DAG construction rules
// of Sec. IV including per-caller service splitting, OR junctions, and AND
// junctions for message synchronization — plus DAG merging across runs and
// multi-mode models (Fig. 2).
package core

import (
	"fmt"
	"sort"

	"github.com/tracesynth/rostracer/internal/sim"
)

// ExecStats aggregates execution-time measurements of one callback:
// measured best-case (mBCET), average (mACET) and worst-case (mWCET)
// values, as reported in Table II. Samples, every measurement in order,
// exists only on the callbacks of a ModelBuilder's Model; Percentile
// needs it. DAG vertices and the stats-only sinks (SynthesizeSink,
// SnapshotService) keep Count, Min, Max and Sum alone.
type ExecStats struct {
	Count   int
	Min     sim.Duration
	Max     sim.Duration
	Sum     sim.Duration
	Samples []sim.Duration
}

// Add records one measurement and keeps it as a sample.
func (s *ExecStats) Add(d sim.Duration) {
	s.fold(d)
	s.Samples = append(s.Samples, d)
}

// fold records one measurement in Count, Min, Max and Sum only.
func (s *ExecStats) fold(d sim.Duration) {
	if s.Count == 0 || d < s.Min {
		s.Min = d
	}
	if s.Count == 0 || d > s.Max {
		s.Max = d
	}
	s.Count++
	s.Sum += d
}

// Merge folds other into s.
func (s *ExecStats) Merge(other ExecStats) {
	if other.Count == 0 {
		return
	}
	if s.Count == 0 || other.Min < s.Min {
		s.Min = other.Min
	}
	if s.Count == 0 || other.Max > s.Max {
		s.Max = other.Max
	}
	s.Count += other.Count
	s.Sum += other.Sum
	s.Samples = append(s.Samples, other.Samples...)
}

// summary returns s without its samples.
func (s ExecStats) summary() ExecStats {
	s.Samples = nil
	return s
}

// BCET returns the measured best-case execution time.
func (s *ExecStats) BCET() sim.Duration { return s.Min }

// WCET returns the measured worst-case execution time.
func (s *ExecStats) WCET() sim.Duration { return s.Max }

// ACET returns the measured average execution time.
func (s *ExecStats) ACET() sim.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / sim.Duration(s.Count)
}

// Percentile returns the p-quantile (0..1) of the samples, or 0 when
// empty.
func (s *ExecStats) Percentile(p float64) sim.Duration {
	if len(s.Samples) == 0 {
		return 0
	}
	cp := make([]sim.Duration, len(s.Samples))
	copy(cp, s.Samples)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(p * float64(len(cp)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

func (s *ExecStats) String() string {
	return fmt.Sprintf("n=%d mBCET=%.2fms mACET=%.2fms mWCET=%.2fms",
		s.Count, s.BCET().Milliseconds(), s.ACET().Milliseconds(), s.WCET().Milliseconds())
}

// CBType is the callback type as identified by the start-probe kind.
type CBType uint8

// Callback types.
const (
	CBTimer CBType = iota
	CBSubscriber
	CBService
	CBClient
)

func (t CBType) String() string {
	switch t {
	case CBTimer:
		return "timer"
	case CBSubscriber:
		return "subscriber"
	case CBService:
		return "service"
	default:
		return "client"
	}
}

// Write records one publication observed inside a callback instance.
type Write struct {
	Topic string
	SrcTS int64
}

// Instance is one observed execution of a callback. Take* and Writes
// record the data flow through the instance (the paper logs source
// timestamps on both sides precisely to enable end-to-end latency
// computation over chains).
type Instance struct {
	Start sim.Time
	End   sim.Time
	ET    sim.Duration

	TakeTopic string // undecorated topic the instance read (empty for timers)
	TakeSrcTS int64
	Writes    []Write
}

// Callback is one CBlist entry produced by Algorithm 1. Instances (and
// Stats.Samples) are kept only by a ModelBuilder; the stats-only sinks
// leave them nil.
type Callback struct {
	PID       uint32
	Node      string
	Type      CBType
	ID        uint64
	InTopic   string   // decorated for services (caller ID) and clients (own ID)
	OutTopics []string // decorated for requests (own ID) and responses (client ID)
	IsSync    bool
	Stats     ExecStats
	First     sim.Time // start of the first instance
	Instances []Instance
}

// HasOutTopic reports whether t is among the published topics.
func (cb *Callback) HasOutTopic(t string) bool {
	for _, o := range cb.OutTopics {
		if o == t {
			return true
		}
	}
	return false
}

func (cb *Callback) addOutTopic(t string) {
	if t == "" || cb.HasOutTopic(t) {
		return
	}
	cb.OutTopics = append(cb.OutTopics, t)
	sort.Strings(cb.OutTopics)
}

// EstimatePeriod returns the median inter-start gap — the paper's
// approximate invocation period for timer callbacks — or 0 with fewer than
// two instances.
func (cb *Callback) EstimatePeriod() sim.Duration {
	if len(cb.Instances) < 2 {
		return 0
	}
	gaps := make([]sim.Duration, 0, len(cb.Instances)-1)
	for i := 1; i < len(cb.Instances); i++ {
		gaps = append(gaps, cb.Instances[i].Start.Sub(cb.Instances[i-1].Start))
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps[len(gaps)/2]
}

func (cb *Callback) String() string {
	return fmt.Sprintf("%s %s cb=%#x in=%q out=%v sync=%v [%s]",
		cb.Node, cb.Type, cb.ID, cb.InTopic, cb.OutTopics, cb.IsSync, cb.Stats.String())
}
