package core

// The batch form of Algorithm 1 and Algorithm 2: one full traversal of
// the sorted ROS events per node, with caller and client searches over
// an index of event positions and execution times intersected from
// materialized sched_switch slices. Production synthesis folds events
// online through snapEngine; this traversal is kept as the independent
// oracle the equivalence tests compare it against.

import (
	"fmt"
	"sort"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
)

// Algorithm 2 — GetExecTime. It measures the CPU time a callback instance
// actually received by intersecting its [start, end] window with the
// executor thread's sched_switch segments: a switch whose previous thread
// is the executor closes a running segment; one whose next thread is the
// executor opens one. The thread is running at both the start event and
// the end event (the execute_* probes fire on-CPU), hence the initial
// last_start = start and the final segment ending at end.
//
// The paper's Algorithm 2 brackets the window with strict time
// comparisons, which is sound on real hardware where a context switch and
// a probe firing never share a nanosecond. In this simulator events can
// coincide in virtual time, so the window boundaries are refined with the
// global emission sequence numbers (startSeq/endSeq of the callback
// start/end probe events): a switch belongs to the window iff it was
// emitted after the start probe and before the end probe.
//
// sched must be the (time, seq)-sorted switch events mentioning pid (as
// prev or next); passing a superset is allowed but slower.
func ExecTime(start, end sim.Time, startSeq, endSeq uint64, pid uint32, sched []trace.Event) sim.Duration {
	var et sim.Duration
	last := start
	running := true // the start probe fires on-CPU
	// Binary search to the first event at or after start.
	lo := sort.Search(len(sched), func(i int) bool { return sched[i].Time >= start })
	for i := lo; i < len(sched); i++ {
		ev := sched[i]
		if ev.Time > end || (ev.Time == end && ev.Seq > endSeq) {
			break
		}
		if ev.Kind != trace.KindSchedSwitch {
			continue
		}
		if ev.Time == start && ev.Seq < startSeq {
			continue
		}
		if ev.PrevPID == pid && running {
			et += ev.Time.Sub(last)
			running = false
		} else if ev.NextPID == pid && !running {
			last = ev.Time
			running = true
		}
	}
	if running {
		et += end.Sub(last)
	}
	return et
}

// eventIndex accelerates the FindCaller / FindClient searches of
// Algorithm 1 over the full (all-PID) ROS event sequence.
type eventIndex struct {
	events []trace.Event // sorted ROS events, all PIDs

	// writesBy maps (topic, srcTS) to positions of dds_write events.
	writesBy map[topicTS][]int
	// takeRespBy maps (response topic, srcTS) to positions of P13 events.
	takeRespBy map[topicTS][]int
}

func newEventIndex(rosSorted []trace.Event) *eventIndex {
	idx := &eventIndex{
		events:     rosSorted,
		writesBy:   make(map[topicTS][]int),
		takeRespBy: make(map[topicTS][]int),
	}
	for i, e := range rosSorted {
		switch e.Kind {
		case trace.KindDDSWrite:
			k := topicTS{e.Topic, e.SrcTS}
			idx.writesBy[k] = append(idx.writesBy[k], i)
		case trace.KindTakeResponse:
			k := topicTS{dds.ServiceResponseTopic(e.Topic), e.SrcTS}
			idx.takeRespBy[k] = append(idx.takeRespBy[k], i)
		}
	}
	return idx
}

// findCaller implements Algorithm 1's FindCaller: locate the dds_write of
// the request (same topic and source timestamp), then walk that PID's
// events backwards to the ID-bearing event (timer call or take) after the
// caller's last callback start.
func (idx *eventIndex) findCaller(reqTopic string, srcTS int64) uint64 {
	positions := idx.writesBy[topicTS{reqTopic, srcTS}]
	if len(positions) == 0 {
		return 0
	}
	pos := positions[0]
	writerPID := idx.events[pos].PID
	for j := pos - 1; j >= 0; j-- {
		e := idx.events[j]
		if e.PID != writerPID {
			continue
		}
		if e.Kind.IsCBStart() {
			return 0 // reached the caller's CB start without an ID event
		}
		if e.Kind == trace.KindTimerCall || e.Kind.IsTake() {
			return e.CBID
		}
	}
	return 0
}

// findClient implements Algorithm 1's FindClient: among the take_response
// events matching the response write, the one whose chronologically next
// take_type_erased_response (same PID) returns 1 identifies the client
// callback that will be dispatched.
func (idx *eventIndex) findClient(respTopic string, srcTS int64) uint64 {
	for _, pos := range idx.takeRespBy[topicTS{respTopic, srcTS}] {
		takeEv := idx.events[pos]
		for j := pos + 1; j < len(idx.events); j++ {
			e := idx.events[j]
			if e.PID != takeEv.PID {
				continue
			}
			if e.Kind == trace.KindTakeTypeErased {
				if e.Ret == 1 {
					return takeEv.CBID
				}
				break
			}
		}
	}
	return 0
}

// etFunc computes the measured execution time of one callback-instance
// window; the oracle backs it with ExecTime over the node's materialized
// sched_switch events.
type etFunc func(start, end sim.Time, startSeq, endSeq uint64) sim.Duration

// ExtractCallbacks is Algorithm 1: it traverses the ROS events of one node
// (identified by PID) in chronological order and assembles its CBlist with
// architectural and timing attributes. rosAll must contain the ROS events
// of *all* PIDs (the caller/client searches cross node boundaries);
// schedPID must contain the sched_switch events mentioning pid. Both must
// be time-sorted.
func ExtractCallbacks(pid uint32, idx *eventIndex, schedPID []trace.Event) ([]*Callback, []Diagnostic) {
	return extractCallbacks(pid, idx, func(start, end sim.Time, startSeq, endSeq uint64) sim.Duration {
		return ExecTime(start, end, startSeq, endSeq, pid, schedPID)
	})
}

// extractCallbacks is Algorithm 1's traversal with the execution-time
// measurement abstracted behind et.
func extractCallbacks(pid uint32, idx *eventIndex, et etFunc) ([]*Callback, []Diagnostic) {
	var list []*Callback
	var diags []Diagnostic

	// Current instance state (CB.* in the paper).
	var cur *Callback
	var curStart sim.Time
	var curStartSeq uint64
	var curInst Instance
	reset := func() { cur = nil; curInst = Instance{} }

	addToList := func(cb *Callback, inst Instance) {
		for _, existing := range list {
			if existing.ID != cb.ID {
				continue
			}
			// For a service CB both the ID and the subscribed topic (which
			// encodes the caller) must match; other types match on ID.
			if existing.Type == CBService && existing.InTopic != cb.InTopic {
				continue
			}
			existing.Stats.Add(inst.ET)
			existing.Instances = append(existing.Instances, inst)
			for _, t := range cb.OutTopics {
				existing.addOutTopic(t)
			}
			if cb.IsSync {
				existing.IsSync = true
			}
			if existing.InTopic == "" {
				existing.InTopic = cb.InTopic
			}
			return
		}
		cb.Stats.Add(inst.ET)
		cb.First = inst.Start
		cb.Instances = append(cb.Instances, inst)
		list = append(list, cb)
	}

	for i := 0; i < len(idx.events); i++ {
		event := idx.events[i]
		if event.PID != pid {
			continue
		}
		switch {
		case event.Kind.IsCBStart(): // P2 / P5 / P9 / P12
			if cur != nil {
				diags = append(diags, Diagnostic{pid, event.Time,
					fmt.Sprintf("callback start %v while instance from %v still open", event.Kind, curStart)})
			}
			cur = &Callback{PID: pid}
			curStart = event.Time
			curStartSeq = event.Seq
			curInst = Instance{}
			switch event.Kind {
			case trace.KindTimerCBStart:
				cur.Type = CBTimer
			case trace.KindSubCBStart:
				cur.Type = CBSubscriber
			case trace.KindServiceCBStart:
				cur.Type = CBService
			case trace.KindClientCBStart:
				cur.Type = CBClient
			}

		case event.Kind == trace.KindTimerCall && cur != nil: // P3
			cur.ID = event.CBID

		case event.Kind.IsTake() && cur != nil: // P6 / P10 / P13
			cur.ID = event.CBID
			curInst.TakeSrcTS = event.SrcTS
			switch event.Kind {
			case trace.KindTakeResponse:
				// Response read: concatenate own ID to distinguish clients.
				respTopic := dds.ServiceResponseTopic(event.Topic)
				cur.InTopic = decorate(respTopic, cur.ID)
				curInst.TakeTopic = respTopic
			case trace.KindTakeRequest:
				// Request read: concatenate the caller's ID.
				reqTopic := dds.ServiceRequestTopic(event.Topic)
				caller := idx.findCaller(reqTopic, event.SrcTS)
				if caller == 0 {
					diags = append(diags, Diagnostic{pid, event.Time,
						fmt.Sprintf("no caller found for request on %s srcTS=%d", reqTopic, event.SrcTS)})
				}
				cur.InTopic = decorate(reqTopic, caller)
				curInst.TakeTopic = reqTopic
			default:
				cur.InTopic = event.Topic
				curInst.TakeTopic = event.Topic
			}

		case event.Kind == trace.KindDDSWrite && cur != nil: // P16
			topic := event.Topic
			var out string
			switch {
			case dds.IsRequestTopic(topic):
				out = decorate(topic, cur.ID)
			case dds.IsResponseTopic(topic):
				client := idx.findClient(topic, event.SrcTS)
				if client == 0 {
					diags = append(diags, Diagnostic{pid, event.Time,
						fmt.Sprintf("no dispatched client found for response on %s srcTS=%d", topic, event.SrcTS)})
				}
				out = decorate(topic, client)
			default:
				out = topic
			}
			cur.addOutTopic(out)
			curInst.Writes = append(curInst.Writes, Write{Topic: topic, SrcTS: event.SrcTS})

		case event.Kind == trace.KindTakeTypeErased && event.Ret == 0: // P14: will not dispatch
			reset()

		case event.Kind == trace.KindSyncSubscribe && cur != nil: // P7
			cur.IsSync = true

		case event.Kind.IsCBEnd() && cur != nil: // P4 / P8 / P11 / P15
			end := event.Time
			curInst.Start = curStart
			curInst.End = end
			curInst.ET = et(curStart, end, curStartSeq, event.Seq)
			addToList(cur, curInst)
			reset()
		}
	}
	if cur != nil {
		diags = append(diags, Diagnostic{pid, curStart, "instance open at end of trace (truncated)"})
	}
	return list, diags
}

// buildModel runs Algorithm 1 for every node named by a P1 event in the
// time-sorted ROS events, with the per-PID execution-time measurement
// supplied by etFor.
func buildModel(ros []trace.Event, etFor func(pid uint32) etFunc) *Model {
	idx := newEventIndex(ros)

	m := &Model{NodeOf: make(map[uint32]string)}
	for _, e := range ros {
		if e.Kind == trace.KindCreateNode {
			m.NodeOf[e.PID] = e.Node
		}
	}

	pids := make([]uint32, 0, len(m.NodeOf))
	for pid := range m.NodeOf {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })

	for _, pid := range pids {
		cbs, diags := extractCallbacks(pid, idx, etFor(pid))
		for _, cb := range cbs {
			cb.Node = m.NodeOf[pid]
		}
		m.Callbacks = append(m.Callbacks, cbs...)
		m.Diags = append(m.Diags, diags...)
	}
	return m
}

// BatchExtractModel is the batch oracle for ExtractModel: it
// materializes and sorts the whole trace, then runs extractCallbacks once
// per node over all ROS events with ExecTime over per-PID sched_switch
// slices.
func BatchExtractModel(tr *trace.Trace) *Model {
	sorted := tr.Clone()
	sorted.SortByTime()

	ros := sorted.ROSEvents()
	sched := sorted.SchedEvents()
	return buildModel(ros.Events, func(pid uint32) etFunc {
		schedPID := sched.FilterPID(pid).Events
		return func(start, end sim.Time, startSeq, endSeq uint64) sim.Duration {
			return ExecTime(start, end, startSeq, endSeq, pid, schedPID)
		}
	})
}
