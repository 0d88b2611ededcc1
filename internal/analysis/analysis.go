// Package analysis contains downstream consumers of the synthesized
// timing model, demonstrating the paper's claim that the generated DAG
// "can serve as an input for analysis and optimization": computation-chain
// enumeration, measured end-to-end latency over chains (via the source
// timestamps logged on publisher and subscriber sides, Sec. VII),
// processor-load computation and greedy core-binding optimization
// (Sec. VI), and a simple chain response-time bound in the spirit of the
// single-threaded-executor analyses the paper cites.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"github.com/tracesynth/rostracer/internal/core"
	"github.com/tracesynth/rostracer/internal/sim"
)

// Chain is one computation chain: a source-to-sink vertex path.
type Chain struct {
	Keys []string
}

func (c Chain) String() string { return strings.Join(c.Keys, " -> ") }

// Chains enumerates all source-to-sink paths of the DAG (bounded by max;
// 0 means no bound). Sources are vertices without in-edges, sinks without
// out-edges.
func Chains(d *core.DAG, max int) []Chain {
	succ := make(map[string][]string)
	hasIn := make(map[string]bool)
	for _, e := range d.Edges() {
		succ[e.From] = append(succ[e.From], e.To)
		hasIn[e.To] = true
	}
	var out []Chain
	var dfs func(path []string)
	dfs = func(path []string) {
		if max > 0 && len(out) >= max {
			return
		}
		last := path[len(path)-1]
		next := succ[last]
		if len(next) == 0 {
			cp := make([]string, len(path))
			copy(cp, path)
			out = append(out, Chain{Keys: cp})
			return
		}
		for _, n := range next {
			// The synthesized model is a DAG, but guard against cycles in
			// hand-built inputs.
			looped := false
			for _, p := range path {
				if p == n {
					looped = true
					break
				}
			}
			if !looped {
				dfs(append(path, n))
			}
		}
	}
	for _, k := range d.VertexKeys() {
		if !hasIn[k] {
			dfs([]string{k})
		}
	}
	return out
}

// LatencyStats summarizes measured end-to-end latencies of a chain.
type LatencyStats struct {
	Count int
	Min   sim.Duration
	Max   sim.Duration
	Mean  sim.Duration
}

// ChainLatencies measures end-to-end latency along a sequence of topics by
// following source timestamps through callback instances: a sample
// published on topics[0] at source time s flows to the instance that took
// (topics[0], s), whose write on topics[1] flows onward, and so on; the
// latency of one flow is the completion time of the final instance minus
// the initial source timestamp.
//
// Flows that die (e.g. a synchronization callback that was not the
// completing arrival, or a sample still in flight at trace end) are
// skipped and counted in dropped.
func ChainLatencies(m *core.Model, topics []string) (LatencyStats, int) {
	if len(topics) < 2 {
		return LatencyStats{}, 0
	}
	type key struct {
		topic string
		srcTS int64
	}
	// Index instances by what they took.
	taken := make(map[key]*core.Instance)
	for _, cb := range m.Callbacks {
		for i := range cb.Instances {
			inst := &cb.Instances[i]
			if inst.TakeTopic != "" {
				taken[key{inst.TakeTopic, inst.TakeSrcTS}] = inst
			}
		}
	}
	// Collect initial source timestamps: every write observed on
	// topics[0] (from modeled callbacks) plus takes of topics[0] whose
	// writer was external (not modeled).
	initial := make(map[int64]bool)
	for _, cb := range m.Callbacks {
		for _, inst := range cb.Instances {
			for _, w := range inst.Writes {
				if w.Topic == topics[0] {
					initial[w.SrcTS] = true
				}
			}
			if inst.TakeTopic == topics[0] {
				initial[inst.TakeSrcTS] = true
			}
		}
	}

	var stats LatencyStats
	dropped := 0
	var sum sim.Duration
	srcs := make([]int64, 0, len(initial))
	for s := range initial {
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })

	for _, s0 := range srcs {
		srcTS := s0
		var final *core.Instance
		ok := true
		for hop := 0; hop < len(topics); hop++ {
			inst, found := taken[key{topics[hop], srcTS}]
			if !found {
				ok = false
				break
			}
			final = inst
			if hop == len(topics)-1 {
				break
			}
			// Find this instance's write on the next topic.
			next, found := writeOn(inst, topics[hop+1])
			if !found {
				ok = false
				break
			}
			srcTS = next
		}
		if !ok || final == nil {
			dropped++
			continue
		}
		lat := final.End.Sub(sim.Time(s0))
		if stats.Count == 0 || lat < stats.Min {
			stats.Min = lat
		}
		if stats.Count == 0 || lat > stats.Max {
			stats.Max = lat
		}
		stats.Count++
		sum += lat
	}
	if stats.Count > 0 {
		stats.Mean = sum / sim.Duration(stats.Count)
	}
	return stats, dropped
}

func writeOn(inst *core.Instance, topic string) (int64, bool) {
	for _, w := range inst.Writes {
		if w.Topic == topic {
			return w.SrcTS, true
		}
	}
	return 0, false
}

// VertexLoad is one row of the processor-load report.
type VertexLoad struct {
	Key         string
	Node        string
	RateHz      float64
	ACET        sim.Duration
	Utilization float64 // ACET x rate
}

// Loads computes per-callback processor load over the observation span
// (the paper: cb2 averages 27% of a core at 10 Hz). span is the traced
// duration the instance counts were collected over.
func Loads(d *core.DAG, span sim.Duration) []VertexLoad {
	var out []VertexLoad
	if span <= 0 {
		return out
	}
	for _, k := range d.VertexKeys() {
		v := d.Vertices[k]
		if v.IsAnd || v.Stats.Count == 0 {
			continue
		}
		rate := float64(v.Stats.Count) / span.Seconds()
		util := rate * v.Stats.ACET().Seconds()
		out = append(out, VertexLoad{Key: k, Node: v.Node, RateHz: rate, ACET: v.Stats.ACET(), Utilization: util})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Utilization > out[j].Utilization })
	return out
}

// NodeLoads aggregates loads per node (one executor thread each).
func NodeLoads(loads []VertexLoad) map[string]float64 {
	out := make(map[string]float64)
	for _, l := range loads {
		out[l.Node] += l.Utilization
	}
	return out
}

// Binding assigns nodes to CPUs.
type Binding struct {
	CPUOf   map[string]int
	PerCPU  []float64
	MaxLoad float64
}

// GreedyBinding packs node loads onto numCPUs cores, assigning the
// heaviest node to the least-loaded core first (LPT) — the load-balancing
// use-case of Sec. VI.
func GreedyBinding(nodeLoads map[string]float64, numCPUs int) Binding {
	if numCPUs < 1 {
		numCPUs = 1
	}
	type nl struct {
		node string
		load float64
	}
	var list []nl
	for n, l := range nodeLoads {
		list = append(list, nl{n, l})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].load != list[j].load {
			return list[i].load > list[j].load
		}
		return list[i].node < list[j].node
	})
	b := Binding{CPUOf: make(map[string]int), PerCPU: make([]float64, numCPUs)}
	for _, x := range list {
		best := 0
		for c := 1; c < numCPUs; c++ {
			if b.PerCPU[c] < b.PerCPU[best] {
				best = c
			}
		}
		b.CPUOf[x.node] = best
		b.PerCPU[best] += x.load
	}
	for _, l := range b.PerCPU {
		if l > b.MaxLoad {
			b.MaxLoad = l
		}
	}
	return b
}

// ChainWCETBound computes a simple end-to-end response-time bound for a
// chain under single-threaded executors: each vertex may have to wait for
// every other callback of its node to finish once (non-preemptive
// executor round) before running for its own WCET. AND junctions
// contribute zero. This is deliberately the coarsest of the analyses the
// model supports; it demonstrates that the DAG carries all quantities
// such analyses need.
func ChainWCETBound(d *core.DAG, c Chain) sim.Duration {
	// Per-node WCET sums.
	nodeSum := make(map[string]sim.Duration)
	for _, k := range d.VertexKeys() {
		v := d.Vertices[k]
		nodeSum[v.Node] += v.Stats.WCET()
	}
	var bound sim.Duration
	for _, k := range c.Keys {
		v := d.Vertices[k]
		if v == nil {
			continue
		}
		if v.IsAnd {
			continue
		}
		// Own WCET + one round of the sibling callbacks.
		bound += nodeSum[v.Node]
	}
	return bound
}

// SpuriousChains quantifies the modeling error the paper's per-caller
// service splitting avoids: it counts the chains of the naive model
// (one vertex per service) that do not correspond to any chain of the
// properly split model — e.g. SC3 -> SV3 -> CL4 in the paper's example.
func SpuriousChains(proper, naive *core.DAG) (int, []Chain) {
	properSet := make(map[string]bool)
	for _, c := range Chains(proper, 0) {
		properSet[nodeTrace(proper, c)] = true
	}
	var spurious []Chain
	for _, c := range Chains(naive, 0) {
		if !properSet[nodeTrace(naive, c)] {
			spurious = append(spurious, c)
		}
	}
	return len(spurious), spurious
}

// nodeTrace renders a chain as a node/type sequence so chains from DAGs
// with different vertex keys compare meaningfully.
func nodeTrace(d *core.DAG, c Chain) string {
	var parts []string
	for _, k := range c.Keys {
		v := d.Vertices[k]
		if v == nil {
			parts = append(parts, k)
			continue
		}
		if v.IsAnd {
			parts = append(parts, v.Node+"/&")
			continue
		}
		in := ""
		if len(v.InTopics) > 0 {
			in = v.InTopics[0]
		}
		parts = append(parts, fmt.Sprintf("%s/%s(%s)", v.Node, v.Type, in))
	}
	return strings.Join(parts, ">")
}
