package core

import (
	"fmt"
	"strconv"

	"github.com/tracesynth/rostracer/internal/sim"
)

// Diagnostic records a non-fatal inconsistency observed while extracting
// callbacks (e.g. a truncated instance at the end of a trace segment).
type Diagnostic struct {
	PID  uint32
	Time sim.Time
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("pid %d @%v: %s", d.PID, d.Time, d.Msg)
}

// decorate concatenates a callback ID to a topic name, the paper's
// mechanism for keeping service chains of different callers apart.
func decorate(topic string, id uint64) string {
	return topic + "#" + strconv.FormatUint(id, 16)
}

// Model is the result of running Algorithm 1 over every ROS2 node of a
// stream. Only nodes announced by a P1 event are modeled; a PID with ROS
// events but no P1 record (e.g. a bare DDS replayer) is left out.
type Model struct {
	// Callbacks of all nodes, in (PID, first-instance) order.
	Callbacks []*Callback
	// NodeOf maps PID to node name (from P1 events).
	NodeOf map[uint32]string
	// Diags aggregates extraction diagnostics.
	Diags []Diagnostic
}
