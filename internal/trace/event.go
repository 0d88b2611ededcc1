// Package trace defines the event model produced by the tracers and
// consumed by the timing-model synthesis algorithms, together with the
// codecs, the streaming merge, and the segment store.
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
	"fmt"
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

// Trace is a materialized event sequence, the form Collector fills.
// Production code streams events through sinks instead; a Trace is for
// tests and benchmarks that need the whole sequence at once.
type Trace struct {
	Events []Event
}
