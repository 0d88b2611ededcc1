package core

import (
	"fmt"
	"strconv"

	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/trace"
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

// Model is the result of running Algorithm 1 over every node in a trace.
type Model struct {
	// Callbacks of all nodes, in (PID, first-instance) order.
	Callbacks []*Callback
	// NodeOf maps PID to node name (from P1 events).
	NodeOf map[uint32]string
	// Diags aggregates extraction diagnostics.
	Diags []Diagnostic
}

// ExtractModel runs Algorithm 1 for every ROS2 node found in the trace
// (via P1 events; PIDs with ROS events but no P1 record — e.g. bare DDS
// replayers — are not modeled, matching the paper's deployment where only
// initialized ROS2 nodes are synthesized). It sorts a copy of the trace
// and folds it through a ModelBuilder, the same engine the streaming
// pipelines use.
func ExtractModel(tr *trace.Trace) *Model {
	sorted := tr.Clone()
	sorted.SortByTime()
	b := NewModelBuilder()
	for i := range sorted.Events {
		b.Observe(sorted.Events[i])
	}
	return b.Finish()
}
