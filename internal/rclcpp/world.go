// Package rclcpp simulates the ROS2 client library and its single-threaded
// executor — the application-facing layer of the middleware stack. ROS2
// applications in this repository (package apps) are written against this
// package's Node API exactly as real ones are written against rclcpp.
//
// The executor dispatches timer, subscription, service and client
// callbacks one at a time from start to end (the paper's system model,
// Sec. II-A), firing the probed functions of Table I in their real order:
// execute_* entry, rmw_take_* (with the source-timestamp out-parameter
// trick), user work as a scheduler compute demand, dds writes, execute_*
// exit. Client callbacks are attempted in every client node of a service
// and dispatched only where take_type_erased_response returns 1, which is
// the behaviour Algorithm 1's P14 handling exists for.
package rclcpp

import (
	"fmt"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/rmw"
	"github.com/tracesynth/rostracer/internal/sched"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/umem"
)

// Probed rclcpp symbols (Table I).
var (
	SymExecuteTimer        = ebpf.Symbol{Lib: "rclcpp", Func: "execute_timer"}
	SymExecuteSubscription = ebpf.Symbol{Lib: "rclcpp", Func: "execute_subscription"}
	SymExecuteService      = ebpf.Symbol{Lib: "rclcpp", Func: "execute_service"}
	SymExecuteClient       = ebpf.Symbol{Lib: "rclcpp", Func: "execute_client"}
	SymTakeTypeErased      = ebpf.Symbol{Lib: "rclcpp", Func: "take_type_erased_response"}
)

// Config parameterizes a World.
type Config struct {
	NumCPUs int
	Seed    uint64
	// DDSLatency overrides the transport latency model (optional).
	DDSLatency sim.Distribution
}

// TruthRecord is the ground-truth log of one callback instance: what the
// application *designed*, against which trace-based measurement is
// validated.
type TruthRecord struct {
	PID      uint32
	CBID     uint64
	Start    sim.Time
	Designed sim.Duration
}

// World ties together the simulation engine, the machine, the DDS domain,
// the eBPF runtime and all nodes: one simulated host running one ROS2
// application set.
type World struct {
	eng        *sim.Engine
	machine    *sched.Machine
	rt         *ebpf.Runtime
	domain     *dds.Domain
	spaces     []*umem.Space // indexed by PID; probe fires resolve through it
	etRNG      *sim.RNG
	nodes      []*Node
	nextExtPID uint32

	// Pre-resolved probe sites for the executor's Table I functions.
	siteExecTimer      *ebpf.ProbeSite
	siteExecSub        *ebpf.ProbeSite
	siteExecService    *ebpf.ProbeSite
	siteExecClient     *ebpf.ProbeSite
	siteTakeTypeErased *ebpf.ProbeSite
	takeInt            rmw.TakeSite
	takeRequest        rmw.TakeSite
	takeResponse       rmw.TakeSite

	truthOn bool // set by RecordTruth
	truth   []TruthRecord
}

// NewWorld creates a world. All randomness derives from cfg.Seed.
func NewWorld(cfg Config) *World {
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 4
	}
	eng := sim.NewEngine()
	root := sim.NewRNG(cfg.Seed)
	w := &World{
		eng:     eng,
		machine: sched.NewMachine(eng, cfg.NumCPUs),
		etRNG:   root.Stream(2),
	}
	w.rt = ebpf.NewRuntime(func() int64 { return int64(eng.Now()) }, w.spaceOf)
	// Pre-resolve the executor's probe sites once; callbacks fire through
	// them on every dispatch.
	w.siteExecTimer = w.rt.Site(SymExecuteTimer)
	w.siteExecSub = w.rt.Site(SymExecuteSubscription)
	w.siteExecService = w.rt.Site(SymExecuteService)
	w.siteExecClient = w.rt.Site(SymExecuteClient)
	w.siteTakeTypeErased = w.rt.Site(SymTakeTypeErased)
	w.takeInt = rmw.ResolveTake(w.rt, rmw.SymTakeInt)
	w.takeRequest = rmw.ResolveTake(w.rt, rmw.SymTakeRequest)
	w.takeResponse = rmw.ResolveTake(w.rt, rmw.SymTakeResponse)
	w.domain = dds.NewDomain(eng, w.rt, root.Stream(1))
	if cfg.DDSLatency != nil {
		w.domain.Latency = cfg.DDSLatency
	}
	w.domain.CPUOf = func(pid uint32) int {
		if t := w.machine.Lookup(sched.PID(pid)); t != nil {
			return t.CPU()
		}
		return 0
	}
	return w
}

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// Machine returns the simulated multiprocessor.
func (w *World) Machine() *sched.Machine { return w.machine }

// Runtime returns the eBPF runtime probes attach to.
func (w *World) Runtime() *ebpf.Runtime { return w.rt }

// Domain returns the DDS domain.
func (w *World) Domain() *dds.Domain { return w.domain }

// ETRand returns the execution-time sampling stream.
func (w *World) ETRand() *sim.RNG { return w.etRNG }

// NodeByName returns the named node, or nil.
func (w *World) NodeByName(name string) *Node {
	for _, n := range w.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// RecordTruth turns on the ground-truth log for the callback instances
// that start from now on. It is off by default: the log grows by one
// record per instance for the life of the world, and only tests read it.
func (w *World) RecordTruth() { w.truthOn = true }

// Truth returns the ground-truth callback-instance log (empty unless
// RecordTruth was called).
func (w *World) Truth() []TruthRecord { return w.truth }

// Run advances the simulation for d of virtual time.
func (w *World) Run(d sim.Duration) {
	w.eng.Run(w.eng.Now().Add(d))
}

// spaceOf resolves a PID to its address space, or nil.
func (w *World) spaceOf(pid uint32) *umem.Space {
	if int(pid) < len(w.spaces) {
		return w.spaces[pid]
	}
	return nil
}

func (w *World) setSpace(pid uint32, sp *umem.Space) {
	if n := int(pid) + 1; n > len(w.spaces) {
		w.spaces = append(w.spaces, make([]*umem.Space, n-len(w.spaces))...)
	}
	w.spaces[pid] = sp
}

func (w *World) recordTruth(pid uint32, cbid uint64, start sim.Time, designed sim.Duration) {
	if !w.truthOn {
		return
	}
	w.truth = append(w.truth, TruthRecord{PID: pid, CBID: cbid, Start: start, Designed: designed})
}

// NewExternalProcess allocates a PID and address space for a process that
// publishes directly through DDS without being a ROS2 node — e.g. a rosbag
// replayer or sensor driver. Its dds_write events are visible to the
// tracers (P16 carries its PID), but with no rmw_create_node record the
// model synthesis correctly leaves it out of the DAG, which is how raw
// sensor topics appear as source edges in Fig. 3b.
func (w *World) NewExternalProcess() (uint32, *umem.Space) {
	w.nextExtPID++
	pid := w.nextExtPID
	sp := umem.NewSpace(pid)
	w.setSpace(pid, sp)
	return pid, sp
}

// NewNode creates a ROS2 node with a single-threaded executor running as
// one OS thread at the given priority and CPU affinity. rmw_create_node
// (P1) fires immediately, so an initialization tracer attached before node
// creation observes the name→PID binding.
func (w *World) NewNode(name string, prio int, affinity uint64) *Node {
	if w.NodeByName(name) != nil {
		panic(fmt.Sprintf("rclcpp: duplicate node name %q", name))
	}
	n := &Node{world: w, name: name}
	n.exec = &executor{node: n}
	n.thread = w.machine.Spawn(name, prio, affinity, n.exec)
	n.pid = uint32(n.thread.PID())
	n.space = umem.NewSpace(n.pid)
	w.setSpace(n.pid, n.space)
	rmwCreateNode(w, n)
	w.nodes = append(w.nodes, n)
	return n
}
