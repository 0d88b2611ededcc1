// Package trace defines the event model produced by the tracers and
// consumed by the timing-model synthesis algorithms, together with codecs,
// merging, filtering, and session management.
//
// An Event is the decoded form of one perf-buffer record (probes P1–P16 of
// Table I) or one sched_switch tracepoint record. Events order by
// (Time, Seq): Seq is a global emission sequence number that keeps
// simultaneous events (e.g. a callback-start probe and the take probe
// inside it, which fire within the same virtual nanosecond) in their true
// causal order, the role nanosecond clock resolution plays on real
// hardware.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Kind identifies the probe or tracepoint an event came from.
type Kind uint8

// Event kinds. P1–P16 match Table I of the paper.
const (
	KindInvalid        Kind = iota
	KindCreateNode          // P1  rmw_create_node: node name + executor PID
	KindTimerCBStart        // P2  execute_timer entry
	KindTimerCall           // P3  rcl_timer_call: timer callback ID
	KindTimerCBEnd          // P4  execute_timer exit
	KindSubCBStart          // P5  execute_subscription entry
	KindTakeInt             // P6  rmw_take_int: sub CB ID, topic, srcTS
	KindSyncSubscribe       // P7  message_filters operator()
	KindSubCBEnd            // P8  execute_subscription exit
	KindServiceCBStart      // P9  execute_service entry
	KindTakeRequest         // P10 rmw_take_request: svc CB ID, service, srcTS
	KindServiceCBEnd        // P11 execute_service exit
	KindClientCBStart       // P12 execute_client entry
	KindTakeResponse        // P13 rmw_take_response: client CB ID, service, srcTS
	KindTakeTypeErased      // P14 take_type_erased_response exit: dispatch flag
	KindClientCBEnd         // P15 execute_client exit
	KindDDSWrite            // P16 dds_write_impl: topic + srcTS
	KindSchedSwitch         // sched:sched_switch
	KindSchedWakeup         // sched:sched_wakeup (Sec. VII extension)
	numKinds
)

var kindNames = [...]string{
	KindInvalid:        "invalid",
	KindCreateNode:     "P1:rmw_create_node",
	KindTimerCBStart:   "P2:execute_timer:entry",
	KindTimerCall:      "P3:rcl_timer_call",
	KindTimerCBEnd:     "P4:execute_timer:exit",
	KindSubCBStart:     "P5:execute_subscription:entry",
	KindTakeInt:        "P6:rmw_take_int",
	KindSyncSubscribe:  "P7:message_filters_operator",
	KindSubCBEnd:       "P8:execute_subscription:exit",
	KindServiceCBStart: "P9:execute_service:entry",
	KindTakeRequest:    "P10:rmw_take_request",
	KindServiceCBEnd:   "P11:execute_service:exit",
	KindClientCBStart:  "P12:execute_client:entry",
	KindTakeResponse:   "P13:rmw_take_response",
	KindTakeTypeErased: "P14:take_type_erased_response",
	KindClientCBEnd:    "P15:execute_client:exit",
	KindDDSWrite:       "P16:dds_write_impl",
	KindSchedSwitch:    "sched_switch",
	KindSchedWakeup:    "sched_wakeup",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind resolves a kind from its String() form, its probe label
// ("P6"), or its bare probe name ("rmw_take_int", "execute_timer:entry",
// "sched_switch") — the forms a CLI -kinds flag accepts.
func ParseKind(s string) (Kind, bool) {
	for k := KindInvalid + 1; k < numKinds; k++ {
		name := kindNames[k]
		if s == name {
			return k, true
		}
		if i := strings.IndexByte(name, ':'); i >= 0 && (s == name[:i] || s == name[i+1:]) {
			return k, true
		}
	}
	return KindInvalid, false
}

// IsCBStart reports whether k is one of the callback-start probes
// (P2/P5/P9/P12).
func (k Kind) IsCBStart() bool {
	switch k {
	case KindTimerCBStart, KindSubCBStart, KindServiceCBStart, KindClientCBStart:
		return true
	}
	return false
}

// IsCBEnd reports whether k is one of the callback-end probes
// (P4/P8/P11/P15).
func (k Kind) IsCBEnd() bool {
	switch k {
	case KindTimerCBEnd, KindSubCBEnd, KindServiceCBEnd, KindClientCBEnd:
		return true
	}
	return false
}

// IsTake reports whether k is one of the take probes (P6/P10/P13).
func (k Kind) IsTake() bool {
	switch k {
	case KindTakeInt, KindTakeRequest, KindTakeResponse:
		return true
	}
	return false
}

// Event is one trace record. Fields beyond the header are populated
// according to Kind; unused fields are zero.
type Event struct {
	Time sim.Time
	Seq  uint64
	PID  uint32
	Kind Kind

	// ROS2 payload.
	Node  string // P1: node name
	CBID  uint64 // P3/P6/P10/P13: callback handle
	Topic string // P6/P10/P13/P16: topic or service name
	SrcTS int64  // P6/P10/P13/P16: source timestamp
	Ret   uint64 // P14: 1 if the client callback will be dispatched

	// sched_switch payload.
	CPU       int32
	PrevPID   uint32
	NextPID   uint32
	PrevPrio  int32
	NextPrio  int32
	PrevState int32
}

func (e Event) String() string {
	switch {
	case e.Kind == KindSchedSwitch:
		return fmt.Sprintf("%d %s cpu%d %d->%d (state %d)",
			e.Time, e.Kind, e.CPU, e.PrevPID, e.NextPID, e.PrevState)
	case e.Kind == KindCreateNode:
		return fmt.Sprintf("%d %s pid=%d node=%s", e.Time, e.Kind, e.PID, e.Node)
	case e.Kind.IsTake() || e.Kind == KindDDSWrite:
		return fmt.Sprintf("%d %s pid=%d cb=%#x topic=%s srcTS=%d",
			e.Time, e.Kind, e.PID, e.CBID, e.Topic, e.SrcTS)
	default:
		return fmt.Sprintf("%d %s pid=%d cb=%#x ret=%d", e.Time, e.Kind, e.PID, e.CBID, e.Ret)
	}
}

// Trace is an ordered collection of events.
type Trace struct {
	Events []Event
}

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Append adds events to the trace.
func (t *Trace) Append(evs ...Event) { t.Events = append(t.Events, evs...) }

// eventLess is the (Time, Seq) chronological order Algorithm 1 requires.
func eventLess(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Seq < b.Seq
}

// SortByTime orders events by (Time, Seq), the chronological order
// Algorithm 1 requires.
func (t *Trace) SortByTime() {
	slices.SortStableFunc(t.Events, func(a, b Event) int {
		if a.Time != b.Time {
			return cmp.Compare(a.Time, b.Time)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// sortedByTime reports whether the trace is already in (Time, Seq) order.
func (t *Trace) sortedByTime() bool {
	for i := 1; i < len(t.Events); i++ {
		if eventLess(&t.Events[i], &t.Events[i-1]) {
			return false
		}
	}
	return true
}

// filter returns the sub-trace of events matching keep, sized exactly with
// a count pass so the result is a single allocation.
func (t *Trace) filter(keep func(*Event) bool) *Trace {
	n := 0
	for i := range t.Events {
		if keep(&t.Events[i]) {
			n++
		}
	}
	out := &Trace{}
	if n == 0 {
		return out
	}
	out.Events = make([]Event, 0, n)
	for i := range t.Events {
		if keep(&t.Events[i]) {
			out.Events = append(out.Events, t.Events[i])
		}
	}
	return out
}

// FilterPID returns the sub-trace whose events belong to pid (for
// sched_switch events: mention pid as prev or next).
func (t *Trace) FilterPID(pid uint32) *Trace {
	return t.filter(func(e *Event) bool {
		if e.Kind == KindSchedSwitch || e.Kind == KindSchedWakeup {
			return e.PrevPID == pid || e.NextPID == pid
		}
		return e.PID == pid
	})
}

// FilterKind returns the sub-trace with only the given kinds.
func (t *Trace) FilterKind(kinds ...Kind) *Trace {
	var want [numKinds]bool
	for _, k := range kinds {
		if k < numKinds {
			want[k] = true
		}
	}
	return t.filter(func(e *Event) bool {
		return e.Kind < numKinds && want[e.Kind]
	})
}

// ROSEvents returns the sub-trace of ROS2 middleware events (everything
// except scheduler events).
func (t *Trace) ROSEvents() *Trace {
	return t.filter(func(e *Event) bool {
		return e.Kind != KindSchedSwitch && e.Kind != KindSchedWakeup
	})
}

// SchedEvents returns the sub-trace of scheduler events (switches and
// wakeups).
func (t *Trace) SchedEvents() *Trace { return t.FilterKind(KindSchedSwitch, KindSchedWakeup) }

// PIDs returns the distinct PIDs of ROS2 events, sorted.
func (t *Trace) PIDs() []uint32 {
	seen := make(map[uint32]bool)
	for _, e := range t.Events {
		if e.Kind != KindSchedSwitch && e.Kind != KindSchedWakeup {
			seen[e.PID] = true
		}
	}
	out := make([]uint32, 0, len(seen))
	for pid := range seen {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Nodes returns the node-name→PID mapping established by P1 events.
func (t *Trace) Nodes() map[string]uint32 {
	out := make(map[string]uint32)
	for _, e := range t.Events {
		if e.Kind == KindCreateNode {
			out[e.Node] = e.PID
		}
	}
	return out
}

// Clone returns a deep copy.
func (t *Trace) Clone() *Trace {
	out := &Trace{Events: make([]Event, len(t.Events))}
	copy(out.Events, t.Events)
	return out
}

// TimeSpan returns the first and last event times (zero values for an
// empty trace).
func (t *Trace) TimeSpan() (first, last sim.Time) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	first, last = t.Events[0].Time, t.Events[0].Time
	for _, e := range t.Events {
		if e.Time < first {
			first = e.Time
		}
		if e.Time > last {
			last = e.Time
		}
	}
	return first, last
}
