// Package rmw simulates the ROS MiddleWare interface layer
// (rmw_cyclonedds_cpp in the paper's stack). It owns the probed functions
// P1 (rmw_create_node), P6 (rmw_take_int), P10 (rmw_take_request) and
// P13 (rmw_take_response) of Table I.
//
// Each take function receives an entity descriptor (holding the callback
// handle and the topic/service name) and a source-timestamp out-parameter.
// The out-parameter's value is unknown at function entry — it is produced
// by lower DDS layers during the call — which is why the paper's tracer
// records its *address* at entry in a BPF map and dereferences it at exit.
// This layer materializes those argument structures in simulated process
// memory so the probe programs can do exactly that.
package rmw

import (
	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/umem"
)

// Probed symbols (Table I).
var (
	SymCreateNode   = ebpf.Symbol{Lib: "rmw_cyclonedds_cpp", Func: "rmw_create_node"}
	SymTakeInt      = ebpf.Symbol{Lib: "rmw_cyclonedds_cpp", Func: "rmw_take_int"}
	SymTakeRequest  = ebpf.Symbol{Lib: "rmw_cyclonedds_cpp", Func: "rmw_take_request"}
	SymTakeResponse = ebpf.Symbol{Lib: "rmw_cyclonedds_cpp", Func: "rmw_take_response"}
)

// Entity descriptor layout: the subscription/service/client structures all
// share {callback handle, pointer to topic/service name}.
const (
	EntityCBIDOff     = 0 // u64 callback handle
	EntityTopicPtrOff = 8 // char* topic or service name
)

// Entity is a middleware entity descriptor resident in process memory.
// Its callback handle doubles as the entity's identity, playing the role
// object addresses play in real rclcpp.
type Entity struct {
	Addr umem.Addr
	CBID uint64
}

// NewEntity materializes an entity descriptor in space. The callback
// handle is the address of a dedicated callback object allocation, so
// handles are unique across all processes and look like real pointers.
func NewEntity(space *umem.Space, name string) Entity {
	cbObj := space.AllocU64(0) // the "callback object"; its address is the handle
	nameAddr := space.AllocString(name)
	w := umem.NewStructWriter(space)
	w.U64(uint64(cbObj)) // EntityCBIDOff
	w.Ptr(nameAddr)      // EntityTopicPtrOff
	return Entity{Addr: w.Commit(), CBID: uint64(cbObj)}
}

// CreateNode simulates rmw_create_node, firing P1 with the node name as
// argument 0. The paper uses this to learn the PID executing each node's
// callbacks.
func CreateNode(rt *ebpf.Runtime, pid uint32, cpu int, space *umem.Space, name string) {
	nameAddr := space.AllocString(name)
	rt.Site(SymCreateNode).FireEntry(pid, cpu, uint64(nameAddr))
}

// TakeSite is a pre-resolved rmw_take_* probe pair. Callers resolve it
// once (per runtime) and fire through it on every take, avoiding the
// per-event symbol interning the ProbeSite mechanism exists to remove.
type TakeSite struct {
	site *ebpf.ProbeSite
}

// ResolveTake interns the take site for sym (one of SymTakeInt,
// SymTakeRequest, SymTakeResponse) on rt.
func ResolveTake(rt *ebpf.Runtime, sym ebpf.Symbol) TakeSite {
	return TakeSite{site: rt.Site(sym)}
}

// Take simulates the shared body of the rmw_take_* family: fire the entry
// probe with (entity, message, &srcTS), let "DDS" fill in the source
// timestamp, then fire the exit probe with the success return value.
// srcAddr is the caller's srcTS variable in space: a stack slot of the
// calling thread, which every take of that thread reuses.
func (t TakeSite) Take(pid uint32, cpu int, space *umem.Space, srcAddr umem.Addr, ent Entity, s *dds.Sample) {
	space.WriteU64(srcAddr, 0) // out-parameter, unset at entry
	t.site.FireEntry(pid, cpu, uint64(ent.Addr), 0 /* message buffer */, uint64(srcAddr))
	space.WriteU64(srcAddr, uint64(s.SrcTS)) // lower layers produce the value
	t.site.FireReturn(pid, cpu, 1 /* RMW_RET_OK with data */)
}
