package rclcpp

import (
	"github.com/tracesynth/rostracer/internal/dds"
	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/rcl"
	"github.com/tracesynth/rostracer/internal/sched"
)

type workKind int

const (
	workSub workKind = iota
	workService
	workClient
)

type workItem struct {
	kind   workKind
	sub    *Subscription
	svc    *Service
	client *Client
	sample *dds.Sample
}

// workQueue is the executor's FIFO of message-driven work. Pops advance
// head; an append that would grow the array first compacts the live
// items to its front, so a steady arrival rate reuses one backing array.
type workQueue struct {
	items []workItem
	head  int
}

func (q *workQueue) push(it workItem) {
	if len(q.items) == cap(q.items) && q.head > 0 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, it)
}

func (q *workQueue) pop() (workItem, bool) {
	if q.head == len(q.items) {
		return workItem{}, false
	}
	it := q.items[q.head]
	q.items[q.head] = workItem{}
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return it, true
}

// executor is the single-threaded ROS2 executor: it dispatches one
// callback at a time from start to end (Sec. II-A of the paper), blocking
// on the wait set when nothing is ready. Timers take precedence over
// message-driven work, as in rclcpp's wait-set ordering; messages are
// handled in arrival order.
type executor struct {
	node  *Node
	queue workQueue

	// The callback in flight: its completion action, its context (one
	// per executor, reused by every instance) and the execute_* site
	// whose return probe closes it.
	inCallback bool
	action     Action
	ctx        CallbackContext
	endSite    *ebpf.ProbeSite
}

// arrive queues message-driven work and wakes the executor thread.
func (x *executor) arrive(it workItem) {
	x.queue.push(it)
	x.node.world.machine.Wake(x.node.thread.PID())
}

// Resume implements sched.Proc.
func (x *executor) Resume(m *sched.Machine) sched.Demand {
	if x.inCallback {
		x.finishCurrent()
	}
	for {
		if t := x.readyTimer(); t != nil {
			return x.beginTimer(t)
		}
		it, ok := x.queue.pop()
		if !ok {
			return sched.Block()
		}
		switch it.kind {
		case workSub:
			return x.beginSub(it.sub, it.sample)
		case workService:
			return x.beginService(it.svc, it.sample)
		case workClient:
			if d, dispatched := x.beginClient(it.client, it.sample); dispatched {
				return d
			}
			// Response was for another client: the instance completed
			// instantly (P12/P13/P14/P15 fired); look for more work.
		}
	}
}

func (x *executor) readyTimer() *Timer {
	for _, t := range x.node.timers {
		if t.ready > 0 {
			return t
		}
	}
	return nil
}

// start records the in-flight callback and returns its compute demand.
func (x *executor) start(body Body, cbid uint64, sample *dds.Sample, endSite *ebpf.ProbeSite) sched.Demand {
	n := x.node
	x.ctx = CallbackContext{Node: n, Sample: sample, Time: n.world.eng.Now()}
	et, action := body.Plan(&x.ctx)
	if et < 0 {
		et = 0
	}
	n.world.recordTruth(n.pid, cbid, x.ctx.Time, et)
	x.inCallback = true
	x.action = action
	x.endSite = endSite
	return sched.Compute(et)
}

// finishCurrent runs the completion action (publishes, service calls) and
// fires the execute_* exit probe (P4/P8/P11/P15), all inside the callback
// window.
func (x *executor) finishCurrent() {
	if x.action != nil {
		x.action(&x.ctx)
	}
	n := x.node
	x.endSite.FireReturn(n.pid, n.cpu(), 0)
	x.inCallback = false
	x.action = nil
	x.ctx.Sample = nil
	x.endSite = nil
}

func (x *executor) beginTimer(t *Timer) sched.Demand {
	t.ready--
	n := x.node
	w := n.world
	cpu := n.cpu()
	w.siteExecTimer.FireEntry(n.pid, cpu)    // P2
	rcl.TimerCall(w.rt, n.pid, cpu, t.rclTm) // P3
	return x.start(t.body, t.rclTm.CBID, nil, w.siteExecTimer)
}

func (x *executor) beginSub(s *Subscription, sample *dds.Sample) sched.Demand {
	n := x.node
	w := n.world
	cpu := n.cpu()
	w.siteExecSub.FireEntry(n.pid, cpu)                              // P5
	w.takeInt.Take(n.pid, cpu, n.space, n.srcTS(), s.entity, sample) // P6 entry+exit
	return x.start(s.body, s.entity.CBID, sample, w.siteExecSub)
}

func (x *executor) beginService(s *Service, req *dds.Sample) sched.Demand {
	n := x.node
	w := n.world
	cpu := n.cpu()
	w.siteExecService.FireEntry(n.pid, cpu)                           // P9
	w.takeRequest.Take(n.pid, cpu, n.space, n.srcTS(), s.entity, req) // P10
	return x.start(s.body, s.entity.CBID, req, w.siteExecService)
}

// beginClient handles a response arrival at one client node. It returns
// (demand, true) when the local client callback is dispatched, or
// (zero, false) when the response belonged to another client, in which
// case the whole instance completes within this call.
func (x *executor) beginClient(c *Client, resp *dds.Sample) (sched.Demand, bool) {
	n := x.node
	w := n.world
	cpu := n.cpu()
	w.siteExecClient.FireEntry(n.pid, cpu)                              // P12
	w.takeResponse.Take(n.pid, cpu, n.space, n.srcTS(), c.entity, resp) // P13
	dispatch := uint64(0)
	if resp.ClientID == c.entity.CBID {
		dispatch = 1
	}
	// take_type_erased_response's return value is read by uretprobe P14.
	w.siteTakeTypeErased.FireReturn(n.pid, cpu, dispatch)
	if dispatch == 0 {
		w.siteExecClient.FireReturn(n.pid, cpu, 0) // P15: nothing ran
		return sched.Demand{}, false
	}
	return x.start(c.body, c.entity.CBID, resp, w.siteExecClient), true
}
