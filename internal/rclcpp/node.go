package rclcpp

import (
	"fmt"

	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/rcl"
	"github.com/tracesynth/rostracer/internal/rmw"
	"github.com/tracesynth/rostracer/internal/sched"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/umem"
)

// CallbackContext is passed to callback bodies. It identifies the node and
// (for message-driven callbacks) the sample being handled. Each executor
// reuses one context for all of its callback instances: it is valid from
// an instance's Plan until its Action returns, and a body that needs a
// field later copies it out.
type CallbackContext struct {
	Node   *Node
	Sample *dds.Sample // nil for timer callbacks
	Time   sim.Time    // callback start time
}

// Action is user code run at the end of a callback instance, while still
// inside the callback window; publishing from an Action therefore produces
// dds_write (P16) events attributable to this callback, as in real ROS2.
type Action func(*CallbackContext)

// Body supplies the user code of a callback. Plan is invoked when an
// instance starts; it returns the designed compute duration and the
// completion action (which may be nil).
type Body interface {
	Plan(ctx *CallbackContext) (sim.Duration, Action)
}

// SimpleBody is the common case: an execution-time distribution plus a
// fixed action.
type SimpleBody struct {
	ET     sim.Distribution
	Action Action
}

// Plan implements Body.
func (b SimpleBody) Plan(ctx *CallbackContext) (sim.Duration, Action) {
	var d sim.Duration
	if b.ET != nil {
		d = b.ET.Sample(ctx.Node.world.etRNG)
	}
	return d, b.Action
}

// BodyFunc adapts a planning function to Body.
type BodyFunc func(ctx *CallbackContext) (sim.Duration, Action)

// Plan implements Body.
func (f BodyFunc) Plan(ctx *CallbackContext) (sim.Duration, Action) { return f(ctx) }

// Node is one ROS2 node: a set of callbacks dispatched by a dedicated
// single-threaded executor.
type Node struct {
	world  *World
	name   string
	pid    uint32
	thread *sched.Thread
	space  *umem.Space
	exec   *executor
	// takeTS is the executor thread's rmw_take_* srcTS out-parameter,
	// allocated by the first take and reused by every later one.
	takeTS umem.Addr

	timers []*Timer
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// PID returns the executor thread's PID.
func (n *Node) PID() uint32 { return n.pid }

// World returns the owning world.
func (n *Node) World() *World { return n.world }

// Thread returns the executor thread.
func (n *Node) Thread() *sched.Thread { return n.thread }

func (n *Node) cpu() int { return n.thread.CPU() }

func (n *Node) srcTS() umem.Addr {
	if n.takeTS.IsNull() {
		n.takeTS = n.space.AllocU64(0)
	}
	return n.takeTS
}

// rmwCreateNode fires P1 for a fresh node.
func rmwCreateNode(w *World, n *Node) {
	rmw.CreateNode(w.rt, n.pid, 0, n.space, n.name)
}

// Timer triggers a callback periodically.
type Timer struct {
	node  *Node
	body  Body
	rclTm rcl.Timer
	ready int
}

// CreateTimer registers a timer callback. The first expiry occurs at
// phase+period after creation (as with rclcpp wall timers, which arm on
// creation and fire after one full period); subsequent expiries follow at
// the fixed rate.
func (n *Node) CreateTimer(period sim.Duration, phase sim.Duration, body Body) *Timer {
	if period <= 0 {
		panic(fmt.Sprintf("rclcpp: node %q timer period %v", n.name, period))
	}
	if phase < 0 {
		phase = 0
	}
	t := &Timer{node: n, body: body, rclTm: rcl.NewTimer(n.space)}
	n.timers = append(n.timers, t)
	var tick func()
	tick = func() {
		t.ready++
		n.world.machine.Wake(n.thread.PID())
		n.world.eng.After(period, tick)
	}
	n.world.eng.After(phase+period, tick)
	return t
}

// Publisher publishes application data on a topic.
type Publisher struct {
	writer *dds.Writer
}

// Publish writes payload on the topic.
func (p *Publisher) Publish(payload interface{}) { p.writer.Write(payload, 0, 0) }

// CreatePublisher creates a publisher on topic.
func (n *Node) CreatePublisher(topic string) *Publisher {
	return &Publisher{writer: n.world.domain.CreateWriter(n.pid, n.space, topic)}
}

// Subscription triggers a callback on new topic data.
type Subscription struct {
	node   *Node
	body   Body
	entity rmw.Entity
}

// CreateSubscription registers a subscriber callback on topic.
func (n *Node) CreateSubscription(topic string, body Body) *Subscription {
	s := &Subscription{node: n, body: body, entity: rmw.NewEntity(n.space, topic)}
	n.world.domain.CreateReader(topic, func(sample *dds.Sample) {
		n.exec.arrive(workItem{kind: workSub, sub: s, sample: sample})
	})
	return s
}

// ServiceHandler computes a service response payload from a request.
type ServiceHandler func(ctx *CallbackContext) interface{}

// Service serves RPCs: each request triggers the service callback, whose
// completion writes the response on the service's response topic.
type Service struct {
	node       *Node
	body       Body
	handler    ServiceHandler
	entity     rmw.Entity
	respWriter *dds.Writer
}

// CreateService registers a service. et is the designed execution time of
// the service callback; handler produces the response payload (may be nil).
func (n *Node) CreateService(service string, et sim.Distribution, handler ServiceHandler) *Service {
	s := &Service{
		node: n, handler: handler,
		entity:     rmw.NewEntity(n.space, service),
		respWriter: n.world.domain.CreateWriter(n.pid, n.space, dds.ServiceResponseTopic(service)),
	}
	s.body = SimpleBody{ET: et, Action: s.respond}
	n.world.domain.CreateReader(dds.ServiceRequestTopic(service), func(sample *dds.Sample) {
		n.exec.arrive(workItem{kind: workService, svc: s, sample: sample})
	})
	return s
}

// respond is the service callback's completion action: it writes the
// handler's response for the request in ctx.Sample.
func (s *Service) respond(ctx *CallbackContext) {
	var payload interface{}
	if s.handler != nil {
		payload = s.handler(ctx)
	}
	// The response inherits the request's client identity and RPC
	// sequence so response routing (P14) can discriminate callers.
	s.respWriter.Write(payload, ctx.Sample.ClientID, ctx.Sample.RPCSeq) // P16
}

// Client issues RPCs to a service and handles responses in a client
// callback. As in the paper's Cyclone DDS setup, the response topic is
// shared: every client node of a service receives every response, and
// take_type_erased_response decides whether the local client callback is
// dispatched.
type Client struct {
	node      *Node
	body      Body
	entity    rmw.Entity
	reqWriter *dds.Writer
	rpcSeq    uint64
}

// CreateClient registers a client of service; body is the response
// callback.
func (n *Node) CreateClient(service string, body Body) *Client {
	c := &Client{
		node: n, body: body,
		entity:    rmw.NewEntity(n.space, service),
		reqWriter: n.world.domain.CreateWriter(n.pid, n.space, dds.ServiceRequestTopic(service)),
	}
	n.world.domain.CreateReader(dds.ServiceResponseTopic(service), func(sample *dds.Sample) {
		n.exec.arrive(workItem{kind: workClient, client: c, sample: sample})
	})
	return c
}

// Call sends an asynchronous request. It is intended to be invoked from a
// callback Action, so the resulting dds_write lands inside the calling
// callback's window (paper: requests are published on the request topic
// from within the caller callback).
func (c *Client) Call(payload interface{}) {
	c.rpcSeq++
	c.reqWriter.Write(payload, c.entity.CBID, c.rpcSeq)
}
