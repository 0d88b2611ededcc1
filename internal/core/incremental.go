package core

import (
	"fmt"
	"sort"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// snapEngine is the one implementation of Algorithm 1 and Algorithm 2.
// It folds every event the moment it is observed, in (Time, Seq) order:
// scheduler events charge or suspend the open execution-time windows,
// and each ROS event advances its PID's extraction machine. A model is
// then "observe everything, then resolvePending + materialize once",
// and materializing costs O(callbacks), not O(events), so live
// snapshots and offline synthesis share the same code and neither
// re-traverses the stream.
//
// No event is retained. The caller and client searches of Algorithm 1
// run over values captured as events pass:
//
//   - findCaller: each PID keeps the callback ID of its last timer call
//     or take since its last callback start — exactly what a backward
//     walk from one of its writes would find. A request-topic dds_write
//     records that ID under its (topic, srcTS), first write only. A
//     request's write precedes its take in (Time, Seq) order (the write
//     causes the take), so the answer is known when the take is folded
//     and never changes.
//   - findClient is NOT stable: the take_response and
//     take_type_erased_response events that identify the dispatched
//     client follow the response's dds_write in time, so the answer for
//     an already-extracted write can change as the stream grows — from
//     "no client" (decoration #0 plus a diagnostic) to the real client
//     ID. Takes are indexed by (ordinal, pid, CBID) and type-erased
//     takes by ordinal per PID; lookups stay pending and are re-resolved
//     at every materialization, updating the owning callback's decorated
//     out-topic set and suppressing the diagnostic once a client
//     appears, until the answer is provably final (a dispatched client
//     found with every earlier take definitively skipped).
//
// All other attributes fold forward: merged callbacks accumulate stats
// and refcounted out-topics; timer periods keep an exact two-heap
// running median over inter-start gaps, matching EstimatePeriod's
// upper-median element for any length.
//
// Per-instance history (Instances, their Writes, and the ET Samples) is
// kept only when keep is set, which only NewModelBuilder does: the DAG
// reads statistics alone. Instance Writes are carved out of a shared
// slab rather than allocated one slice each.
type snapEngine struct {
	ord  uint64 // ROS events folded so far: the ordinal of the next one
	keep bool   // retain instances, writes and ET samples

	nodeOf map[uint32]string
	// dense holds the machines of PIDs below densePIDs, indexed by PID;
	// sparse holds the rest.
	dense  []*pidMachine
	sparse map[uint32]*pidMachine

	// callerOf maps a request write's (topic, srcTS) to findCaller's
	// answer, captured when the first such write was folded.
	callerOf map[topicTS]uint64
	// takeRespBy maps (response topic, srcTS) to the take_response
	// events that read it, in stream order.
	takeRespBy map[topicTS][]takeResp

	// names caches the strings derived from each service-related name,
	// so folding an event never concatenates one.
	names map[string]*topicNames

	pending []*pendingClient

	// writes is the slab instance Writes are carved from (see carveWrites).
	writes []Write
}

// writeSlabLen is the number of Writes one slab chunk holds.
const writeSlabLen = 512

// carveWrites copies ws into the slab and returns the copy capped to its
// length, so an append by any holder reallocates instead of running into
// the next instance's writes. A full chunk is left to the instances
// carved from it.
func (g *snapEngine) carveWrites(ws []Write) []Write {
	if len(ws) == 0 {
		return nil
	}
	if cap(g.writes)-len(g.writes) < len(ws) {
		g.writes = make([]Write, 0, max(writeSlabLen, len(ws)))
	}
	n := len(g.writes)
	g.writes = append(g.writes, ws...)
	return g.writes[n:len(g.writes):len(g.writes)]
}

// topicNames holds what the engine derives from one topic or service
// name: a service's request and response topics, and the topic's
// decorated "topic#id" names. The cache is bounded by the topics seen
// and, per topic, by the callback IDs that decorate it.
type topicNames struct {
	name      string
	req, resp *topicNames // a service's request/response topics (see service)
	dec       map[uint64]string
}

// topic returns name's cache entry. The cache is made on first use, so
// a service-free stream allocates none of it.
func (g *snapEngine) topic(name string) *topicNames {
	t := g.names[name]
	if t == nil {
		if g.names == nil {
			g.names = make(map[string]*topicNames)
		}
		t = &topicNames{name: name}
		g.names[name] = t
	}
	return t
}

// service returns a service name's entry, with its request and response
// topic entries set.
func (g *snapEngine) service(name string) *topicNames {
	s := g.topic(name)
	if s.req == nil {
		s.req = g.topic(dds.ServiceRequestTopic(name))
		s.resp = g.topic(dds.ServiceResponseTopic(name))
	}
	return s
}

// decorate returns decorate(t.name, id), built once per id.
func (t *topicNames) decorate(id uint64) string {
	s, ok := t.dec[id]
	if !ok {
		if t.dec == nil {
			t.dec = make(map[uint64]string)
		}
		s = decorate(t.name, id)
		t.dec[id] = s
	}
	return s
}

// topicTS keys a message by topic and source timestamp.
type topicTS struct {
	topic string
	srcTS int64
}

// takeResp is one take_response event as findClient needs it.
type takeResp struct {
	ord  uint64
	pid  uint32
	cbid uint64
}

// ttePoint is one take_type_erased_response event of a PID.
type ttePoint struct {
	ord uint64
	ret uint64
}

func newSnapEngine() *snapEngine {
	return &snapEngine{
		nodeOf:     make(map[uint32]string),
		sparse:     make(map[uint32]*pidMachine),
		callerOf:   make(map[topicTS]uint64),
		takeRespBy: make(map[topicTS][]takeResp),
	}
}

// pidMachine is one PID's Algorithm 1 extraction state and Algorithm 2
// window: the merged callback list, the diagnostics (some conditional
// on a pending client resolution), the currently open instance, and the
// findCaller / findClient values the PID contributes.
type pidMachine struct {
	pid   uint32
	list  []*cbEntry
	diags []diagSlot

	open bool // cur holds an instance
	cur  curState
	win  etWindow

	// caller is findCaller's answer for a write folded now: the CBID of
	// the last timer call or take since the last callback start.
	caller uint64
	// tte holds the PID's take_type_erased_response events, the
	// resumable form of findClient's forward scan: the outcome for a
	// take at ordinal o is decided by the first entry past o.
	tte []ttePoint
}

// etWindow is Algorithm 2's state for one callback-instance window. A
// callback-start probe opens it running (the probe fires on-CPU),
// switches charge or suspend it as they stream by, and the callback-end
// probe closes it. The (Time, Seq) bracketing of window boundaries falls
// out of stream order: a switch sharing the start timestamp but emitted
// earlier arrives before the start probe; one sharing the end timestamp
// but emitted later arrives after the window closed.
type etWindow struct {
	open     bool
	running  bool
	startSeq uint64
	last     sim.Time
	et       sim.Duration
}

// diagSlot is one diagnostic position in a PID's extraction output. A
// slot tied to a pending client lookup is visible only while that
// lookup resolves to "no client", exactly when a batch extraction over
// the same prefix would emit it.
type diagSlot struct {
	d    Diagnostic
	pend *pendingClient
}

// curState is the instance currently open on a PID.
type curState struct {
	typ      CBType
	id       uint64
	inTopic  string
	isSync   bool
	outs     []outContrib // reused across instances
	writes   []Write      // reused across instances; carved into inst.Writes at the end (keep only)
	start    sim.Time
	startSeq uint64
	inst     Instance
}

// outContrib is one dds_write's contribution to a callback's decorated
// out-topic set: a fixed string, or a pending client lookup whose
// decoration can still change.
type outContrib struct {
	fixed string
	pend  *pendingClient
}

// cbEntry is one merged CBlist entry plus its incremental accumulators.
type cbEntry struct {
	cb Callback // canonical accumulator; OutTopics unused (see outRefs)

	// outRefs refcounts decorated out-topic strings. Pending client
	// re-resolution moves a contribution from one string to another, so
	// presence (count > 0), not membership, defines the set.
	outRefs   map[string]int
	outsCache []string
	outsDirty bool

	last sim.Time      // start of the latest instance
	med  medianTracker // inter-start gaps, for timer period estimates (timers only)
}

// addInstance folds a completed instance into the entry's statistics
// and, with keep, appends it and its ET sample to the history.
func (e *cbEntry) addInstance(inst *Instance, keep bool) {
	if e.cb.Stats.Count == 0 {
		e.cb.First = inst.Start
	} else if e.cb.Type == CBTimer {
		e.med.push(inst.Start.Sub(e.last))
	}
	e.last = inst.Start
	if keep {
		e.cb.Stats.Add(inst.ET)
		e.cb.Instances = append(e.cb.Instances, *inst)
	} else {
		e.cb.Stats.fold(inst.ET)
	}
}

func (e *cbEntry) addOut(c outContrib) {
	s := c.fixed
	if c.pend != nil {
		c.pend.owner = e
		s = c.pend.curOut
	}
	if s == "" {
		return
	}
	if e.outRefs[s]++; e.outRefs[s] == 1 {
		e.outsDirty = true
	}
}

// outs returns the current decorated out-topic set, sorted. The cache
// is rebuilt into a fresh allocation whenever the set changed, so
// slices handed to earlier snapshots are never mutated.
func (e *cbEntry) outs() []string {
	if e.outsDirty {
		out := make([]string, 0, len(e.outRefs))
		for s, n := range e.outRefs {
			if n > 0 {
				out = append(out, s)
			}
		}
		sort.Strings(out)
		e.outsCache = out
		e.outsDirty = false
	}
	return e.outsCache[:len(e.outsCache):len(e.outsCache)]
}

// period is a timer entry's period estimate: the same upper-median
// inter-start gap EstimatePeriod computes by sorting, read off the
// running median in O(1). Only timer entries track the median.
func (e *cbEntry) period() sim.Duration {
	if e.cb.Stats.Count < 2 {
		return 0
	}
	return e.med.upperMedian()
}

// snapshotCallback materializes the entry as a fresh Callback whose
// slices are shared full-capacity-clamped: the engine keeps appending
// to its own backing arrays (in place, beyond the snapshot's length)
// while every handed-out snapshot stays fixed.
func (e *cbEntry) snapshotCallback(node string) *Callback {
	cb := e.cb
	cb.Node = node
	cb.Stats.Samples = clamp(cb.Stats.Samples)
	cb.Instances = clamp(cb.Instances)
	cb.OutTopics = e.outs()
	return &cb
}

// clamp full-capacity-clamps s, so an append by the receiver reallocates
// instead of writing into the source's backing array.
func clamp[T any](s []T) []T { return s[:len(s):len(s)] }

// pendingClient is one unresolved findClient lookup, created at a
// response dds_write and re-resolved at every materialization until
// final.
type pendingClient struct {
	topic  *topicNames // response topic (the write's topic, also the lookup key)
	srcTS  int64
	owner  *cbEntry // merged entry holding the out-topic contribution; nil while the instance is open or discarded
	curOut string   // decorated string currently in owner's refcounts
	id     uint64
	final  bool
	msg    string // the "no client" diagnostic, formatted when first shown
}

func (p *pendingClient) set(id uint64, final bool) {
	p.final = final
	if id == p.id {
		return
	}
	old := p.curOut
	p.id = id
	p.curOut = p.topic.decorate(id)
	if o := p.owner; o != nil {
		if o.outRefs[old]--; o.outRefs[old] <= 0 {
			delete(o.outRefs, old)
		}
		o.outRefs[p.curOut]++
		o.outsDirty = true
	}
}

// diagnostic is the slot's "no dispatched client" message.
func (p *pendingClient) diagnostic() string {
	if p.msg == "" {
		p.msg = fmt.Sprintf("no dispatched client found for response on %s srcTS=%d", p.topic.name, p.srcTS)
	}
	return p.msg
}

// observe folds one event. Events must arrive in (Time, Seq) order.
func (g *snapEngine) observe(e *trace.Event) {
	switch e.Kind {
	case trace.KindSchedSwitch:
		g.observeSwitch(e)
	case trace.KindSchedWakeup:
		// wakeups carry no Algorithm 2 information
	default:
		g.machineFor(e.PID).step(g, e)
		g.ord++
	}
}

// observeSwitch folds one sched_switch into the open windows, mirroring
// ExecTime's per-PID branch structure: a switch whose previous thread
// owns a running window suspends it; one whose next thread owns a
// suspended window resumes it — and when one thread is both prev and
// next, the suspend branch wins, as in the batch loop's else-if.
func (g *snapEngine) observeSwitch(e *trace.Event) {
	if w := g.window(e.PrevPID); w != nil && w.running {
		w.et += e.Time.Sub(w.last)
		w.running = false
		if e.PrevPID == e.NextPID {
			return
		}
	}
	if w := g.window(e.NextPID); w != nil && !w.running {
		w.last = e.Time
		w.running = true
	}
}

// window returns pid's open execution-time window, or nil.
func (g *snapEngine) window(pid uint32) *etWindow {
	if m := g.machine(pid); m != nil && m.win.open {
		return &m.win
	}
	return nil
}

// densePIDs bounds the PIDs whose machines the engine indexes by slice
// position: every sched_switch looks up two PIDs, and a slice index is
// cheaper than a map probe. Larger PIDs fall back to the map.
const densePIDs = 1 << 16

// machine returns pid's machine, or nil.
func (g *snapEngine) machine(pid uint32) *pidMachine {
	if pid < densePIDs {
		if int(pid) < len(g.dense) {
			return g.dense[pid]
		}
		return nil
	}
	return g.sparse[pid]
}

// machineFor returns pid's machine, making it on first use.
func (g *snapEngine) machineFor(pid uint32) *pidMachine {
	if m := g.machine(pid); m != nil {
		return m
	}
	m := &pidMachine{pid: pid}
	if pid >= densePIDs {
		g.sparse[pid] = m
		return m
	}
	if int(pid) >= len(g.dense) {
		g.dense = append(g.dense, make([]*pidMachine, int(pid)+1-len(g.dense))...)
	}
	g.dense[pid] = m
	return m
}

// tteAfter finds the PID's first take_type_erased_response past ord —
// findClient's inner scan as a binary search. ok is false while no such
// event has been observed yet.
func (m *pidMachine) tteAfter(ord uint64) (ttePoint, bool) {
	i := sort.Search(len(m.tte), func(i int) bool { return m.tte[i].ord > ord })
	if i == len(m.tte) {
		return ttePoint{}, false
	}
	return m.tte[i], true
}

// resolve recomputes a pending client lookup, replicating findClient:
// walk the matching take_response events in stream order; the first
// whose next type-erased take returned 1 names the client; a take whose
// next type-erased take returned 0 is skipped for good; a take with no
// type-erased take yet is skipped for now. The answer is final only
// when a client was found and every earlier take was definitively
// skipped — otherwise later events could change it, exactly as a batch
// re-run over the longer stream could.
func (g *snapEngine) resolve(p *pendingClient) {
	definitive := true
	for _, take := range g.takeRespBy[topicTS{p.topic.name, p.srcTS}] {
		tte, ok := g.machine(take.pid).tteAfter(take.ord)
		if !ok {
			definitive = false
			continue
		}
		if tte.ret == 1 {
			p.set(take.cbid, definitive)
			return
		}
	}
	p.set(0, false)
}

// resolvePending re-resolves every open client lookup and drops the
// ones that became final.
func (g *snapEngine) resolvePending() {
	old := g.pending
	live := old[:0]
	for _, p := range old {
		g.resolve(p)
		if !p.final {
			live = append(live, p)
		}
	}
	clear(old[len(live):]) // release finalized lookups
	g.pending = live
}

// step folds one ROS event of the machine's PID: Algorithm 1's case
// analysis, the findCaller / findClient values the event contributes,
// and the Algorithm 2 window its callback start and end bracket.
func (m *pidMachine) step(g *snapEngine, e *trace.Event) {
	switch e.Kind {
	case trace.KindCreateNode: // P1
		g.nodeOf[e.PID] = e.Node

	case trace.KindTimerCBStart, trace.KindSubCBStart,
		trace.KindServiceCBStart, trace.KindClientCBStart: // P2 / P5 / P9 / P12
		m.win = etWindow{open: true, running: true, startSeq: e.Seq, last: e.Time}
		m.caller = 0
		if m.open {
			m.diags = append(m.diags, diagSlot{d: Diagnostic{m.pid, e.Time,
				fmt.Sprintf("callback start %v while instance from %v still open", e.Kind, m.cur.start)}})
		}
		m.open = true
		m.cur = curState{typ: cbTypeOf(e.Kind), outs: m.cur.outs[:0], writes: m.cur.writes[:0],
			start: e.Time, startSeq: e.Seq}

	case trace.KindTimerCall: // P3
		m.caller = e.CBID
		if m.open {
			m.cur.id = e.CBID
		}

	case trace.KindTakeInt, trace.KindTakeRequest, trace.KindTakeResponse: // P6 / P10 / P13
		m.caller = e.CBID
		var resp *topicNames
		if e.Kind == trace.KindTakeResponse {
			resp = g.service(e.Topic).resp
			k := topicTS{resp.name, e.SrcTS}
			g.takeRespBy[k] = append(g.takeRespBy[k], takeResp{g.ord, m.pid, e.CBID})
		}
		if !m.open {
			return
		}
		cur := &m.cur
		cur.id = e.CBID
		cur.inst.TakeSrcTS = e.SrcTS
		switch e.Kind {
		case trace.KindTakeResponse:
			// Response read: concatenate own ID to distinguish clients.
			cur.inTopic = resp.decorate(cur.id)
			cur.inst.TakeTopic = resp.name
		case trace.KindTakeRequest:
			// Request read: concatenate the caller's ID.
			req := g.service(e.Topic).req
			caller := g.callerOf[topicTS{req.name, e.SrcTS}]
			if caller == 0 {
				m.diags = append(m.diags, diagSlot{d: Diagnostic{m.pid, e.Time,
					fmt.Sprintf("no caller found for request on %s srcTS=%d", req.name, e.SrcTS)}})
			}
			cur.inTopic = req.decorate(caller)
			cur.inst.TakeTopic = req.name
		default:
			cur.inTopic = e.Topic
			cur.inst.TakeTopic = e.Topic
		}

	case trace.KindDDSWrite: // P16
		topic := e.Topic
		isReq := dds.IsRequestTopic(topic)
		if isReq {
			k := topicTS{topic, e.SrcTS}
			if _, seen := g.callerOf[k]; !seen {
				g.callerOf[k] = m.caller
			}
		}
		if !m.open {
			return
		}
		var contrib outContrib
		switch {
		case isReq:
			contrib.fixed = g.topic(topic).decorate(m.cur.id)
		case dds.IsResponseTopic(topic):
			tn := g.topic(topic)
			p := &pendingClient{topic: tn, srcTS: e.SrcTS, curOut: tn.decorate(0)}
			g.resolve(p)
			m.diags = append(m.diags, diagSlot{d: Diagnostic{PID: m.pid, Time: e.Time}, pend: p})
			if !p.final {
				g.pending = append(g.pending, p)
			}
			contrib.pend = p
		default:
			contrib.fixed = topic
		}
		m.cur.outs = append(m.cur.outs, contrib)
		if g.keep {
			m.cur.writes = append(m.cur.writes, Write{Topic: topic, SrcTS: e.SrcTS})
		}

	case trace.KindTakeTypeErased: // P14
		m.tte = append(m.tte, ttePoint{g.ord, e.Ret})
		if e.Ret == 0 { // will not dispatch: drop the instance, keep the window
			m.open = false
		}

	case trace.KindSyncSubscribe: // P7
		if m.open {
			m.cur.isSync = true
		}

	case trace.KindTimerCBEnd, trace.KindSubCBEnd,
		trace.KindServiceCBEnd, trace.KindClientCBEnd: // P4 / P8 / P11 / P15
		w := m.win
		m.win.open = false
		if !m.open {
			return
		}
		m.open = false
		cur := &m.cur
		cur.inst.Start = cur.start
		cur.inst.End = e.Time
		// The window and the instance open on the same start event, but
		// a dispatch-0 take clears only the instance: use the window's
		// time only when it is this instance's.
		if w.open && w.startSeq == cur.startSeq {
			cur.inst.ET = w.et
			if w.running {
				cur.inst.ET += e.Time.Sub(w.last)
			}
		}
		if g.keep {
			cur.inst.Writes = g.carveWrites(cur.writes)
		}
		m.merge(cur, g.keep)
	}
}

func cbTypeOf(k trace.Kind) CBType {
	switch k {
	case trace.KindSubCBStart:
		return CBSubscriber
	case trace.KindServiceCBStart:
		return CBService
	case trace.KindClientCBStart:
		return CBClient
	}
	return CBTimer
}

// merge folds a completed instance into the machine's CBlist, with
// Algorithm 1's AddToList matching rule: same ID, and for service
// entries also the same (caller-decorated) in-topic. Both sides of the
// comparison are stable under stream growth (caller decoration rests on
// findCaller), so merge decisions never need revisiting.
func (m *pidMachine) merge(cur *curState, keep bool) {
	for _, e := range m.list {
		if e.cb.ID != cur.id {
			continue
		}
		if e.cb.Type == CBService && e.cb.InTopic != cur.inTopic {
			continue
		}
		e.addInstance(&cur.inst, keep)
		for _, c := range cur.outs {
			e.addOut(c)
		}
		if cur.isSync {
			e.cb.IsSync = true
		}
		if e.cb.InTopic == "" {
			e.cb.InTopic = cur.inTopic
		}
		return
	}
	e := &cbEntry{
		cb: Callback{PID: m.pid, Type: cur.typ, ID: cur.id,
			InTopic: cur.inTopic, IsSync: cur.isSync},
		outRefs: make(map[string]int),
	}
	e.addInstance(&cur.inst, keep)
	for _, c := range cur.outs {
		e.addOut(c)
	}
	m.list = append(m.list, e)
}

// materialize assembles a Model from the accumulators: fresh Callback
// headers over clamp-shared slices, in (PID, first-instance) order,
// with diagnostics filtered by current pending resolutions and an open
// instance reported as truncated. The returned periodOf reads timer
// periods captured here, so it stays valid while the engine folds on.
func (g *snapEngine) materialize() (*Model, func(*Callback) sim.Duration) {
	m := &Model{NodeOf: make(map[uint32]string, len(g.nodeOf))}
	pids := make([]uint32, 0, len(g.nodeOf))
	for pid, node := range g.nodeOf {
		m.NodeOf[pid] = node
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	periods := make(map[*Callback]sim.Duration)
	for _, pid := range pids {
		mach := g.machine(pid)
		for _, e := range mach.list {
			cb := e.snapshotCallback(g.nodeOf[pid])
			if cb.Type == CBTimer {
				periods[cb] = e.period()
			}
			m.Callbacks = append(m.Callbacks, cb)
		}
		for _, slot := range mach.diags {
			switch {
			case slot.pend == nil:
				m.Diags = append(m.Diags, slot.d)
			case slot.pend.id == 0:
				d := slot.d
				d.Msg = slot.pend.diagnostic()
				m.Diags = append(m.Diags, d)
			}
		}
		if mach.open {
			m.Diags = append(m.Diags, Diagnostic{pid, mach.cur.start,
				"instance open at end of trace (truncated)"})
		}
	}
	periodOf := func(cb *Callback) sim.Duration {
		if p, ok := periods[cb]; ok {
			return p
		}
		return cb.EstimatePeriod()
	}
	return m, periodOf
}

// medianTracker maintains the upper median of a growing multiset with
// two heaps: lo (a max-heap) holds the smaller floor(n/2) elements, hi
// (a min-heap) the larger ceil(n/2), so hi's root is element n/2 of the
// sorted multiset — exactly what EstimatePeriod's sort produces.
type medianTracker struct {
	lo, hi []sim.Duration
}

func (m *medianTracker) push(d sim.Duration) {
	if len(m.hi) == 0 || d >= m.hi[0] {
		heapPush(&m.hi, d, false)
	} else {
		heapPush(&m.lo, d, true)
	}
	if len(m.hi) > len(m.lo)+1 {
		heapPush(&m.lo, heapPop(&m.hi, false), true)
	} else if len(m.lo) > len(m.hi) {
		heapPush(&m.hi, heapPop(&m.lo, true), false)
	}
}

func (m *medianTracker) upperMedian() sim.Duration {
	if len(m.hi) == 0 {
		return 0
	}
	return m.hi[0]
}

// heapPush / heapPop implement a binary heap over a duration slice; max
// selects max-heap ordering.
func heapPush(h *[]sim.Duration, d sim.Duration, max bool) {
	s := append(*h, d)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapAbove(s[i], s[parent], max) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

func heapPop(h *[]sim.Duration, max bool) sim.Duration {
	s := *h
	root := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(s) && heapAbove(s[l], s[best], max) {
			best = l
		}
		if r < len(s) && heapAbove(s[r], s[best], max) {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	*h = s
	return root
}

// heapAbove reports whether a should sit above b in the heap.
func heapAbove(a, b sim.Duration, max bool) bool {
	if max {
		return a > b
	}
	return a < b
}
