// Package msgfilters simulates the message_filters library used for data
// synchronization (sensor fusion) in ROS2 applications such as Autoware's
// point-cloud fusion node. A Synchronizer subscribes to m topics; each
// arrival runs the filter's operator() — probed as P7 in Table I — and
// when a complete, time-consistent set of samples is available, the fused
// user callback runs inside the completing subscriber callback's window.
//
// That placement is why, in the paper's words, "when the input data to a
// CB in MSα never arrives last during the synchronization, no published
// topic is found in the corresponding entry in CBlist": only the
// last-arriving subscriber callback ever publishes the fusion output.
package msgfilters

import (
	"fmt"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/rclcpp"
	"github.com/tracesynth/rostracer/internal/sim"
)

// SymOperator is the probed filter-invocation function (Table I, P7).
var SymOperator = ebpf.Symbol{Lib: "message_filters", Func: "operator"}

// Policy matches sets of samples across the input queues.
type Policy interface {
	// TryMatch inspects the queues (one per input, oldest first) and, on
	// a match, stores the index of one matched sample per queue in picks
	// (len(picks) == len(queues)) and returns true. Implementations may
	// drop unmatchable samples from the queues.
	TryMatch(queues [][]*dds.Sample, picks []int) bool
}

// ExactTime matches samples whose source timestamps are identical.
type ExactTime struct{}

// TryMatch implements Policy.
func (ExactTime) TryMatch(queues [][]*dds.Sample, picks []int) bool {
	return matchWithin(queues, picks, 0)
}

// ApproximateTime matches samples whose source timestamps lie within Slop
// of each other, dropping heads that can no longer participate in a match.
// This is a simplified form of message_filters' approximate-time policy
// with the same observable behaviour for well-formed periodic inputs.
type ApproximateTime struct {
	Slop sim.Duration
}

// TryMatch implements Policy.
func (p ApproximateTime) TryMatch(queues [][]*dds.Sample, picks []int) bool {
	return matchWithin(queues, picks, p.Slop)
}

// matchWithin finds head samples with timestamp spread <= slop. Heads that
// are too old relative to the newest head are discarded, since later
// samples only move forward in time.
func matchWithin(queues [][]*dds.Sample, picks []int, slop sim.Duration) bool {
	for {
		var newest sim.Time
		for _, q := range queues {
			if len(q) == 0 {
				return false
			}
			if q[0].SrcTS > newest {
				newest = q[0].SrcTS
			}
		}
		dropped := false
		for i, q := range queues {
			if newest.Sub(q[0].SrcTS) > slop {
				queues[i] = removeAt(q, 0)
				dropped = true
			}
		}
		if dropped {
			continue
		}
		clear(picks) // heads (index 0) all within slop
		return true
	}
}

// removeAt deletes q[i] in place, shifting the tail down, and clears the
// vacated slot so the queue keeps no stale sample alive. The backing
// array is kept for the queue's next arrivals.
func removeAt(q []*dds.Sample, i int) []*dds.Sample {
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

// FusedContext is handed to the fused callback: the matched set plus the
// completing subscription's callback context. The synchronizer reuses it
// and its Set for every match: both are valid until the fused callback
// returns.
type FusedContext struct {
	*rclcpp.CallbackContext
	Set []*dds.Sample
}

// Synchronizer ties m subscriptions on one node to a fused callback.
type Synchronizer struct {
	node   *rclcpp.Node
	policy Policy
	topics []string
	queues [][]*dds.Sample

	// ReadET is the designed cost of handling one (non-completing)
	// arrival; FusedET is the additional cost when an arrival completes a
	// set and the fusion computation runs.
	readET  []sim.Distribution
	fusedET sim.Distribution
	fused   func(*FusedContext)

	// siteOp is the pre-resolved operator() probe site, bound lazily on
	// the first arrival.
	siteOp *ebpf.ProbeSite

	// Match scratch, reused by every arrival: the policy's picks, the
	// matched set, the fused callback's context and the completion
	// action that runs it (s.runFused, bound once).
	picks    []int
	fc       FusedContext
	runFused rclcpp.Action
}

// Config configures a Synchronizer.
type Config struct {
	Topics  []string
	Policy  Policy
	ReadET  []sim.Distribution // one per topic; nil entries mean zero cost
	FusedET sim.Distribution   // extra cost when completing a set
	Fused   func(*FusedContext)
}

// New creates the synchronizer's subscriptions on node. Each subscription
// is an ordinary rclcpp subscription whose body is the filter operator.
func New(node *rclcpp.Node, cfg Config) *Synchronizer {
	if len(cfg.Topics) < 2 {
		panic("msgfilters: need at least two topics to synchronize")
	}
	if cfg.Policy == nil {
		cfg.Policy = ApproximateTime{Slop: 10 * sim.Millisecond}
	}
	if cfg.ReadET != nil && len(cfg.ReadET) != len(cfg.Topics) {
		panic(fmt.Sprintf("msgfilters: %d ReadET entries for %d topics", len(cfg.ReadET), len(cfg.Topics)))
	}
	s := &Synchronizer{
		node:    node,
		policy:  cfg.Policy,
		topics:  cfg.Topics,
		queues:  make([][]*dds.Sample, len(cfg.Topics)),
		readET:  cfg.ReadET,
		fusedET: cfg.FusedET,
		fused:   cfg.Fused,
		picks:   make([]int, len(cfg.Topics)),
	}
	s.fc.Set = make([]*dds.Sample, len(cfg.Topics))
	s.runFused = s.fuse
	for i, topic := range cfg.Topics {
		i := i
		node.CreateSubscription(topic, rclcpp.BodyFunc(
			func(ctx *rclcpp.CallbackContext) (sim.Duration, rclcpp.Action) {
				return s.operator(i, ctx)
			}))
	}
	return s
}

// operator is the filter's operator(): it fires P7, enqueues the sample,
// and — if this arrival completes a set — plans the fusion work and its
// publishing action into this callback instance.
func (s *Synchronizer) operator(input int, ctx *rclcpp.CallbackContext) (sim.Duration, rclcpp.Action) {
	n := s.node
	w := n.World()
	if s.siteOp == nil {
		s.siteOp = w.Runtime().Site(SymOperator)
	}
	s.siteOp.FireEntry(n.PID(), n.Thread().CPU(), uint64(input)) // P7

	s.queues[input] = append(s.queues[input], ctx.Sample)

	var et sim.Duration
	if s.readET != nil && s.readET[input] != nil {
		et = s.readET[input].Sample(w.ETRand())
	}
	if !s.policy.TryMatch(s.queues, s.picks) {
		return et, nil
	}
	// Pop the matched set.
	for i, pick := range s.picks {
		s.fc.Set[i] = s.queues[i][pick]
		s.queues[i] = removeAt(s.queues[i], pick)
	}
	if s.fusedET != nil {
		et += s.fusedET.Sample(w.ETRand())
	}
	return et, s.runFused
}

// fuse runs the fused callback on the set the completing arrival popped.
func (s *Synchronizer) fuse(c *rclcpp.CallbackContext) {
	if s.fused != nil {
		s.fc.CallbackContext = c
		s.fused(&s.fc)
	}
}
