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
// values, as reported in Table II. It keeps Count, Min, Max and Sum
// alone; the measurements themselves stay on the callback's Instances
// when a ModelBuilder keeps them.
type ExecStats struct {
	Count int
	Min   sim.Duration
	Max   sim.Duration
	Sum   sim.Duration
}

// Add records one measurement.
func (s *ExecStats) Add(d sim.Duration) {
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

// Callback is one CBlist entry produced by Algorithm 1. Period is a
// timer's approximate invocation period: the upper median of the gaps
// between its instance starts (element n/2 of the n sorted gaps), or 0
// with fewer than two instances. Instances are kept only by a
// NewModelBuilder; the stats-only sinks leave them nil.
type Callback struct {
	PID       uint32
	Node      string
	Type      CBType
	ID        uint64
	InTopic   string   // decorated for services (caller ID) and clients (own ID)
	OutTopics []string // decorated for requests (own ID) and responses (client ID)
	IsSync    bool
	Stats     ExecStats
	Period    sim.Duration // timers only
	First     sim.Time     // start of the first instance
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

func (cb *Callback) String() string {
	return fmt.Sprintf("%s %s cb=%#x in=%q out=%v sync=%v [%s]",
		cb.Node, cb.Type, cb.ID, cb.InTopic, cb.OutTopics, cb.IsSync, cb.Stats.String())
}
