package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// Vertex is one task of the synthesized timing model: a callback, or a
// zero-execution-time AND junction inserted for message synchronization.
// It carries statistics only: Stats holds Count, Min, Max and Sum (no
// Samples), and the per-instance history stays on the Model's callbacks
// when a ModelBuilder produced them.
type Vertex struct {
	Key  string // canonical identity, stable across runs
	Node string
	PID  uint32
	Type CBType

	IsAnd      bool // AND junction (message synchronization output)
	IsSync     bool // callback participates in data synchronization
	OrJunction bool // >= 2 publishers feed one of its subscribed topics

	InTopics  []string // undecorated topic names, for display
	OutTopics []string

	Stats           ExecStats
	PeriodEstimates []sim.Duration // one per contributing trace (timers)
}

// Period returns the median of the per-run period estimates (timers).
func (v *Vertex) Period() sim.Duration {
	if len(v.PeriodEstimates) == 0 {
		return 0
	}
	cp := make([]sim.Duration, len(v.PeriodEstimates))
	copy(cp, v.PeriodEstimates)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp[len(cp)/2]
}

// Label returns a short human-readable vertex label.
func (v *Vertex) Label() string {
	if v.IsAnd {
		return v.Node + "/&"
	}
	in := strings.Join(v.InTopics, ",")
	if in == "" {
		in = fmt.Sprintf("T=%.0fms", v.Period().Milliseconds())
	}
	return fmt.Sprintf("%s/%s(%s)", v.Node, v.Type, in)
}

// Edge is a precedence relation labeled with the carrying topic.
type Edge struct {
	From, To string // vertex keys
	Topic    string // undecorated topic name
}

// DAG is the synthesized timing model. Alongside the edge set it maintains
// per-vertex in/out adjacency indexes (updated in AddEdge) and a sorted
// edge-list cache, so edge queries cost O(degree) and repeated Edges()
// calls don't re-sort.
type DAG struct {
	Vertices map[string]*Vertex
	edgeSet  map[Edge]struct{}

	inIdx  map[string][]Edge // To -> edges into it, insertion order
	outIdx map[string][]Edge // From -> edges out of it, insertion order
	sorted []Edge            // Edges() cache; nil when dirty
}

// NewDAG returns an empty model.
func NewDAG() *DAG {
	return &DAG{
		Vertices: make(map[string]*Vertex),
		edgeSet:  make(map[Edge]struct{}),
		inIdx:    make(map[string][]Edge),
		outIdx:   make(map[string][]Edge),
	}
}

// AddEdge inserts e if absent and updates the adjacency indexes.
func (d *DAG) AddEdge(e Edge) {
	if _, ok := d.edgeSet[e]; ok {
		return
	}
	d.edgeSet[e] = struct{}{}
	d.inIdx[e.To] = append(d.inIdx[e.To], e)
	d.outIdx[e.From] = append(d.outIdx[e.From], e)
	d.sorted = nil
}

// HasEdge reports whether e exists.
func (d *DAG) HasEdge(e Edge) bool {
	_, ok := d.edgeSet[e]
	return ok
}

func edgeLess(a, b Edge) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.To != b.To {
		return a.To < b.To
	}
	return a.Topic < b.Topic
}

// Edges returns the edges sorted by (From, To, Topic). The slice is cached
// until the next AddEdge and shared across calls; callers must not modify
// it.
func (d *DAG) Edges() []Edge {
	if d.sorted == nil {
		out := make([]Edge, 0, len(d.edgeSet))
		for e := range d.edgeSet {
			out = append(out, e)
		}
		sort.Slice(out, func(i, j int) bool { return edgeLess(out[i], out[j]) })
		d.sorted = out
	}
	return d.sorted
}

// VertexKeys returns the vertex keys sorted.
func (d *DAG) VertexKeys() []string {
	out := make([]string, 0, len(d.Vertices))
	for k := range d.Vertices {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// VertexByLabelSubstring returns the first vertex (key order) whose key
// contains s; a convenience for tests and examples. It scans the vertex map
// directly, tracking the smallest matching key, instead of sorting every
// key on each call.
func (d *DAG) VertexByLabelSubstring(s string) *Vertex {
	best := ""
	found := false
	for k := range d.Vertices {
		if strings.Contains(k, s) && (!found || k < best) {
			best, found = k, true
		}
	}
	if !found {
		return nil
	}
	return d.Vertices[best]
}

// InEdges returns the edges into key, sorted by (From, To, Topic).
func (d *DAG) InEdges(key string) []Edge {
	return sortedAdjacency(d.inIdx[key])
}

// OutEdges returns the edges out of key, sorted by (From, To, Topic).
func (d *DAG) OutEdges(key string) []Edge {
	return sortedAdjacency(d.outIdx[key])
}

func sortedAdjacency(list []Edge) []Edge {
	if len(list) == 0 {
		return nil
	}
	out := make([]Edge, len(list))
	copy(out, list)
	sort.Slice(out, func(i, j int) bool { return edgeLess(out[i], out[j]) })
	return out
}

// baseTopic strips the "#id" decoration Algorithm 1 appends for service
// disambiguation.
func baseTopic(t string) string {
	if i := strings.LastIndexByte(t, '#'); i >= 0 {
		return t[:i]
	}
	return t
}

// decorID extracts the decoration id, or 0.
func decorID(t string) uint64 {
	i := strings.LastIndexByte(t, '#')
	if i < 0 {
		return 0
	}
	v, err := strconv.ParseUint(t[i+1:], 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// canonicalKeys assigns run-stable identities to callbacks. Raw callback
// handles are simulated object addresses and change between runs, so the
// identity is built from the node name, the callback type, and the
// undecorated topics; service callbacks additionally carry their caller's
// canonical key (recursively), preserving the paper's per-caller split.
// Remaining collisions (e.g. two timers with identical outputs in one
// node) are disambiguated ordinally by first observed start time
// (Callback.First).
func canonicalKeys(cbs []*Callback) map[*Callback]string {
	base := make(map[*Callback]string, len(cbs))
	idToBase := make(map[uint64]string)
	for _, cb := range cbs {
		var b string
		switch cb.Type {
		case CBTimer:
			outs := make([]string, 0, len(cb.OutTopics))
			for _, t := range cb.OutTopics {
				outs = append(outs, baseTopic(t))
			}
			sort.Strings(outs)
			b = cb.Node + "|timer|" + strings.Join(outs, ",")
		case CBSubscriber:
			b = cb.Node + "|sub|" + baseTopic(cb.InTopic)
			if cb.IsSync {
				b += "|sync"
			}
		case CBService:
			b = cb.Node + "|service|" + baseTopic(cb.InTopic)
		case CBClient:
			b = cb.Node + "|client|" + baseTopic(cb.InTopic)
		}
		base[cb] = b
		if _, dup := idToBase[cb.ID]; !dup {
			idToBase[cb.ID] = b
		}
	}

	full := make(map[*Callback]string, len(cbs))
	for _, cb := range cbs {
		k := base[cb]
		if cb.Type == CBService {
			caller := "caller:unknown"
			if id := decorID(cb.InTopic); id != 0 {
				if cb2, ok := idToBase[id]; ok {
					caller = "caller:" + cb2
				}
			}
			k += "@" + caller
		}
		full[cb] = k
	}

	// Ordinal disambiguation of residual collisions.
	byKey := make(map[string][]*Callback)
	for _, cb := range cbs {
		byKey[full[cb]] = append(byKey[full[cb]], cb)
	}
	for _, group := range byKey {
		if len(group) < 2 {
			continue
		}
		sort.Slice(group, func(i, j int) bool { return group[i].First < group[j].First })
		for i, cb := range group {
			full[cb] = fmt.Sprintf("%s|%d", full[cb], i)
		}
	}
	return full
}

// BuildDAG applies the DAG-synthesis rules of Sec. IV to a model:
//
//   - every CBlist entry becomes a vertex (so a service with n callers
//     contributes n vertices);
//   - an edge runs from cb' to cb when a published topic of cb' matches
//     the subscribed topic of cb (decorated names make service edges
//     caller- and client-specific);
//   - the outputs of data-synchronization callbacks are routed through a
//     zero-execution-time AND-junction vertex per synchronization group;
//   - a vertex whose subscribed topic is fed by more than one publisher is
//     marked as an OR junction.
func BuildDAG(m *Model) *DAG {
	return buildDAG(m, nil)
}

// buildDAG is BuildDAG with the timer-period estimator injectable:
// periodOf (nil selects Callback.EstimatePeriod) lets the incremental
// snapshot engine substitute its O(1) streaming median for the batch
// sort, without which every snapshot would re-sort every timer's full
// inter-start gap history.
func buildDAG(m *Model, periodOf func(*Callback) sim.Duration) *DAG {
	d := NewDAG()
	keys := canonicalKeys(m.Callbacks)

	// Vertices, with the statistics of every callback mapped to them.
	for _, cb := range m.Callbacks {
		key := keys[cb]
		v, ok := d.Vertices[key]
		if !ok {
			v = &Vertex{Key: key, Node: cb.Node, PID: cb.PID, Type: cb.Type, IsSync: cb.IsSync}
			d.Vertices[key] = v
		}
		v.Stats.Merge(cb.Stats.summary())
		if in := baseTopic(cb.InTopic); in != "" {
			v.InTopics = mergeSorted(v.InTopics, in)
		}
		for _, t := range cb.OutTopics {
			v.OutTopics = mergeSorted(v.OutTopics, baseTopic(t))
		}
		if cb.Type == CBTimer {
			var p sim.Duration
			if periodOf != nil {
				p = periodOf(cb)
			} else {
				p = cb.EstimatePeriod()
			}
			if p > 0 {
				v.PeriodEstimates = append(v.PeriodEstimates, p)
			}
		}
	}

	// Synchronization groups: the sync-marked callbacks of one node form
	// one group MSα whose outputs route through an AND junction.
	syncGroup := make(map[string][]*Callback) // node -> members
	for _, cb := range m.Callbacks {
		if cb.IsSync {
			syncGroup[cb.Node] = append(syncGroup[cb.Node], cb)
		}
	}
	andKey := func(node string) string { return node + "|&" }
	for node, members := range syncGroup {
		v := &Vertex{Key: andKey(node), Node: node, IsAnd: true}
		for _, cb := range members {
			for _, t := range cb.OutTopics {
				v.OutTopics = mergeSorted(v.OutTopics, baseTopic(t))
			}
			v.InTopics = mergeSorted(v.InTopics, baseTopic(cb.InTopic))
		}
		d.Vertices[v.Key] = v
	}

	// Subscriptions by raw (decorated) in-topic.
	byIn := make(map[string][]*Callback)
	for _, cb := range m.Callbacks {
		if cb.InTopic != "" {
			byIn[cb.InTopic] = append(byIn[cb.InTopic], cb)
		}
	}

	// Edges.
	for _, cb := range m.Callbacks {
		if cb.IsSync {
			// Member -> AND junction; outputs leave from the junction.
			d.AddEdge(Edge{From: keys[cb], To: andKey(cb.Node), Topic: baseTopic(cb.InTopic)})
			continue
		}
		for _, out := range cb.OutTopics {
			for _, sub := range byIn[out] {
				d.AddEdge(Edge{From: keys[cb], To: keys[sub], Topic: baseTopic(out)})
			}
		}
	}
	for node, members := range syncGroup {
		seen := map[string]bool{}
		for _, cb := range members {
			for _, out := range cb.OutTopics {
				if seen[out] {
					continue
				}
				seen[out] = true
				for _, sub := range byIn[out] {
					d.AddEdge(Edge{From: andKey(node), To: keys[sub], Topic: baseTopic(out)})
				}
			}
		}
	}

	// OR junctions: multiple publishers on one subscribed topic.
	type toTopic struct {
		to, topic string
	}
	fanIn := make(map[toTopic]int)
	for e := range d.edgeSet {
		fanIn[toTopic{e.To, e.Topic}]++
	}
	for tt, n := range fanIn {
		if n >= 2 {
			d.Vertices[tt.to].OrJunction = true
		}
	}
	return d
}

func mergeSorted(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	list = append(list, s)
	sort.Strings(list)
	return list
}

// Synthesize runs the full pipeline — Algorithm 1 over every node, then
// DAG construction — on one merged trace.
func Synthesize(tr *trace.Trace) *DAG {
	return BuildDAG(ExtractModel(tr))
}

// MergeDAGs merges per-trace DAGs (the approach used for the paper's
// experiments): vertices and edges are unioned by canonical identity, and
// per-callback execution-time statistics combine across all inputs.
func MergeDAGs(dags ...*DAG) *DAG {
	out := NewDAG()
	for _, d := range dags {
		if d == nil {
			continue
		}
		for key, v := range d.Vertices {
			dst, ok := out.Vertices[key]
			if !ok {
				dst = &Vertex{Key: key, Node: v.Node, PID: v.PID, Type: v.Type,
					IsAnd: v.IsAnd, IsSync: v.IsSync}
				out.Vertices[key] = dst
			}
			dst.Stats.Merge(v.Stats)
			dst.PeriodEstimates = append(dst.PeriodEstimates, v.PeriodEstimates...)
			dst.OrJunction = dst.OrJunction || v.OrJunction
			dst.IsSync = dst.IsSync || v.IsSync
			for _, t := range v.InTopics {
				dst.InTopics = mergeSorted(dst.InTopics, t)
			}
			for _, t := range v.OutTopics {
				dst.OutTopics = mergeSorted(dst.OutTopics, t)
			}
		}
		for e := range d.edgeSet {
			out.AddEdge(e)
		}
	}
	return out
}

// MultiModeDAG holds one DAG per operating mode (Fig. 2's per-scenario
// merge, e.g. city vs highway driving).
type MultiModeDAG struct {
	Modes map[string]*DAG
}

// NewMultiModeDAG returns an empty multi-mode model.
func NewMultiModeDAG() *MultiModeDAG { return &MultiModeDAG{Modes: make(map[string]*DAG)} }

// AddTrace synthesizes tr and merges it into the given mode.
func (mm *MultiModeDAG) AddTrace(mode string, tr *trace.Trace) {
	d := Synthesize(tr)
	if existing, ok := mm.Modes[mode]; ok {
		mm.Modes[mode] = MergeDAGs(existing, d)
	} else {
		mm.Modes[mode] = d
	}
}

// ModeNames returns the modes sorted.
func (mm *MultiModeDAG) ModeNames() []string {
	out := make([]string, 0, len(mm.Modes))
	for k := range mm.Modes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Union merges all modes into a single DAG.
func (mm *MultiModeDAG) Union() *DAG {
	var all []*DAG
	for _, name := range mm.ModeNames() {
		all = append(all, mm.Modes[name])
	}
	return MergeDAGs(all...)
}

// BuildDAGNaive builds the model WITHOUT the paper's service modeling:
// topic decorations are stripped, so a service invoked by n different
// callers collapses into a single vertex with n incoming and n outgoing
// edges — producing the n x n spurious chains (e.g. SC3 -> SV3 -> CL4)
// that Sec. I identifies as a wrong interpretation. It exists purely as
// the ablation baseline for that claim.
func BuildDAGNaive(m *Model) *DAG {
	byID := make(map[uint64]*Callback)
	var cbs []*Callback
	for _, cb := range m.Callbacks {
		outs := make([]string, 0, len(cb.OutTopics))
		for _, t := range cb.OutTopics {
			outs = mergeSorted(outs, baseTopic(t))
		}
		c := &Callback{
			PID: cb.PID, Node: cb.Node, Type: cb.Type, ID: cb.ID,
			InTopic: baseTopic(cb.InTopic), OutTopics: outs, IsSync: cb.IsSync,
			First: cb.First,
		}
		c.Stats.Merge(cb.Stats)
		c.Instances = append(c.Instances, cb.Instances...)
		if existing, ok := byID[cb.ID]; ok && existing.Type == c.Type {
			existing.Stats.Merge(cb.Stats)
			existing.Instances = append(existing.Instances, cb.Instances...)
			for _, t := range outs {
				existing.addOutTopic(t)
			}
			continue
		}
		byID[cb.ID] = c
		cbs = append(cbs, c)
	}
	return BuildDAG(&Model{Callbacks: cbs, NodeOf: m.NodeOf})
}
