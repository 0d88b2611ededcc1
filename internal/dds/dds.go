// Package dds simulates the Data Distribution Service layer (the paper
// uses Eclipse Cyclone DDS) that carries every ROS2 communication: topic
// publications, service requests, and service responses.
//
// The layer's observable protocol is what matters for timing-model
// synthesis: dds_write_impl assigns the sample's source timestamp and is
// probed as P16; delivery to readers happens after a (configurable,
// seeded-random) transport latency; every reader of a topic receives every
// sample, including service-response readers in all client nodes of a
// service, which is the behaviour the paper's client-callback
// disambiguation (P13/P14) exists to handle.
package dds

import (
	"fmt"

	"github.com/tracesynth/rostracer/internal/ebpf"
	"github.com/tracesynth/rostracer/internal/sim"
	"github.com/tracesynth/rostracer/internal/umem"
)

// SymWrite is the probed write function (Table I, P16).
var SymWrite = ebpf.Symbol{Lib: "cyclonedds", Func: "dds_write_impl"}

// Sample is one unit of data in flight on a topic.
type Sample struct {
	Topic     string
	SrcTS     sim.Time // source timestamp assigned by dds_write_impl
	WriterPID uint32
	// Service plumbing: for requests, ClientID identifies the requesting
	// client object so the response can be routed; Seq is the RPC sequence
	// number. Zero for plain topic data.
	ClientID uint64
	RPCSeq   uint64
	// Payload is application data (opaque to the middleware).
	Payload interface{}
}

// Reader receives samples from a topic. Delivery invokes OnData in the
// reader process's context; the ROS2 wait-set bridges it to the executor.
type Reader struct {
	OnData func(*Sample)

	// open holds the reader's batches not yet dispatched, at most one
	// per due tick. It stays a few entries long: a batch lives only for
	// its sample's transport latency.
	open []*batch
}

// Writer publishes samples on a topic. Each writer owns a small descriptor
// structure in its process's simulated memory holding a pointer to the
// topic name; the P16 probe program traverses it, exactly as the real
// tracer traverses Cyclone DDS writer entities.
type Writer struct {
	topic      string
	pid        uint32
	domain     *Domain
	structAddr umem.Addr
	readers    *topicReaders // the topic's readers, shared with the domain
}

// topicReaders lists one topic's readers. Writers hold it directly, so a
// write reaches its readers without a topic-name lookup, and readers
// created after the writer still receive its samples.
type topicReaders struct {
	list []*Reader
}

// WriterStructTopicPtrOff is the byte offset of the topic-name pointer
// inside the writer descriptor.
const WriterStructTopicPtrOff = 0

// TransportFault perturbs per-delivery transport behaviour: a lossy or
// congested network between writer and reader. Fate is consulted once
// per (sample, reader) delivery and draws from the domain's seeded RNG,
// so fault schedules are deterministic per seed.
type TransportFault interface {
	// Fate decides one delivery: drop it entirely, deliver extra duplicate
	// copies (each with its own latency draw), and/or add extra latency to
	// every copy.
	Fate(rng *sim.RNG) (drop bool, dups int, extra sim.Duration)
}

// TransportFaultStats counts what a TransportFault did to a domain.
type TransportFaultStats struct {
	Dropped    uint64 // deliveries suppressed
	Duplicated uint64 // extra copies delivered
	Delayed    uint64 // deliveries given extra latency
}

// Domain is one DDS domain: the topic space and transport.
type Domain struct {
	eng    *sim.Engine
	rt     *ebpf.Runtime
	rng    *sim.RNG
	topics map[string]*topicReaders
	// Latency models transport delay per delivery. Defaults to a uniform
	// 20–80 µs, the order of local-loopback DDS latencies.
	Latency sim.Distribution
	// Fault, when set, perturbs every delivery (drop / duplicate / extra
	// delay). Nil in production: Write pays one nil check per reader.
	Fault      TransportFault
	faultStats TransportFaultStats
	// CPUOf resolves the CPU a PID currently runs on for probe contexts;
	// optional (defaults to CPU 0).
	CPUOf func(pid uint32) int

	// siteWrite is the pre-resolved dds_write_impl probe site, bound
	// lazily on the first write.
	siteWrite *ebpf.ProbeSite

	// free lists the dispatched delivery batches, ready for reuse.
	free *batch
}

// batch coalesces the deliveries due at one reader in one tick: the
// first sample scheduled for (reader, due) opens a batch and its one
// engine event, later samples ride it. The engine then dispatches one
// event per reader per tick instead of one per sample — the batching a
// real DDS reader cache gives the wait set. Dispatched batches return to
// the domain's free list with their sample slice emptied, so the steady
// state schedules deliveries without allocating.
type batch struct {
	d       *Domain
	reader  *Reader
	due     sim.Time
	samples []*Sample
	fire    func() // b.dispatch, bound once when the record is made
	next    *batch // free-list link
}

// NewDomain creates a domain on eng, firing probes into rt, with transport
// jitter drawn from rng.
func NewDomain(eng *sim.Engine, rt *ebpf.Runtime, rng *sim.RNG) *Domain {
	return &Domain{
		eng:     eng,
		rt:      rt,
		rng:     rng,
		topics:  make(map[string]*topicReaders),
		Latency: sim.Uniform{Min: 20 * sim.Microsecond, Max: 80 * sim.Microsecond},
	}
}

// CreateWriter creates a writer for pid on topic, materializing its
// descriptor in space.
func (d *Domain) CreateWriter(pid uint32, space *umem.Space, topic string) *Writer {
	if topic == "" {
		panic("dds: empty topic")
	}
	nameAddr := space.AllocString(topic)
	sw := umem.NewStructWriter(space)
	sw.Ptr(nameAddr) // WriterStructTopicPtrOff
	addr := sw.Commit()
	return &Writer{topic: topic, pid: pid, domain: d, structAddr: addr, readers: d.topicReaders(topic)}
}

// CreateReader subscribes to topic; onData runs at delivery time.
func (d *Domain) CreateReader(topic string, onData func(*Sample)) *Reader {
	r := &Reader{OnData: onData}
	tr := d.topicReaders(topic)
	tr.list = append(tr.list, r)
	return r
}

func (d *Domain) topicReaders(topic string) *topicReaders {
	tr := d.topics[topic]
	if tr == nil {
		tr = &topicReaders{}
		d.topics[topic] = tr
	}
	return tr
}

// Write publishes a sample: it stamps the source timestamp, fires P16 in
// the writer's process context, and schedules delivery to every reader of
// the topic.
func (w *Writer) Write(payload interface{}, clientID, rpcSeq uint64) *Sample {
	d := w.domain
	now := d.eng.Now()
	s := &Sample{
		Topic:     w.topic,
		SrcTS:     now,
		WriterPID: w.pid,
		ClientID:  clientID,
		RPCSeq:    rpcSeq,
		Payload:   payload,
	}

	// dds_write_impl(writer, data, timestamp): probe P16 reads the topic
	// name through the writer descriptor and the source timestamp from the
	// third argument.
	cpu := 0
	if d.CPUOf != nil {
		cpu = d.CPUOf(w.pid)
	}
	if d.siteWrite == nil {
		d.siteWrite = d.rt.Site(SymWrite)
	}
	d.siteWrite.FireEntry(w.pid, cpu, uint64(w.structAddr), 0, uint64(s.SrcTS))

	for _, r := range w.readers.list {
		copies := 1
		var extra sim.Duration
		if d.Fault != nil {
			drop, dups, ex := d.Fault.Fate(d.rng)
			if drop {
				d.faultStats.Dropped++
				continue
			}
			if dups > 0 {
				copies += dups
				d.faultStats.Duplicated += uint64(dups)
			}
			if ex > 0 {
				extra = ex
				d.faultStats.Delayed++
			}
		}
		for c := 0; c < copies; c++ {
			delay := d.Latency.Sample(d.rng) + extra
			if delay < 0 {
				delay = 0
			}
			d.deliver(r, now.Add(delay), s)
		}
	}
	return s
}

// FaultStats reports what the installed TransportFault (if any) has done
// so far.
func (d *Domain) FaultStats() TransportFaultStats { return d.faultStats }

// deliver enqueues s for r at the due tick. Same-tick deliveries to one
// reader coalesce into a single engine event that hands the reader its
// batch in write order, so N simultaneous samples cost one scheduler
// dispatch instead of N.
func (d *Domain) deliver(r *Reader, due sim.Time, s *Sample) {
	for _, b := range r.open {
		if b.due == due {
			b.samples = append(b.samples, s)
			return
		}
	}
	b := d.free
	if b != nil {
		d.free = b.next
		b.next = nil
	} else {
		b = &batch{d: d}
		b.fire = b.dispatch
	}
	b.reader, b.due = r, due
	b.samples = append(b.samples, s)
	r.open = append(r.open, b)
	d.eng.At(due, b.fire)
}

// dispatch hands the batch to its reader. The batch leaves the reader's
// open set before the callbacks run: a reader that writes back with
// zero latency starts a fresh batch later in the same tick rather than
// appending to the one in flight.
func (b *batch) dispatch() {
	r := b.reader
	for i, o := range r.open {
		if o == b {
			last := len(r.open) - 1
			r.open[i] = r.open[last]
			r.open[last] = nil
			r.open = r.open[:last]
			break
		}
	}
	if r.OnData != nil {
		for _, s := range b.samples {
			r.OnData(s)
		}
	}
	clear(b.samples)
	b.samples = b.samples[:0]
	b.reader = nil
	b.next = b.d.free
	b.d.free = b
}

// ServiceRequestTopic returns the DDS topic carrying requests of a
// service, following the rmw naming convention.
func ServiceRequestTopic(service string) string { return "rq/" + service + "Request" }

// ServiceResponseTopic returns the DDS topic carrying responses of a
// service.
func ServiceResponseTopic(service string) string { return "rr/" + service + "Reply" }

// IsRequestTopic reports whether topic carries service requests.
func IsRequestTopic(topic string) bool {
	return len(topic) > 3 && topic[:3] == "rq/"
}

// IsResponseTopic reports whether topic carries service responses.
func IsResponseTopic(topic string) bool {
	return len(topic) > 3 && topic[:3] == "rr/"
}

// ServiceOfTopic extracts the service name from a request or response
// topic, or returns the empty string.
func ServiceOfTopic(topic string) string {
	switch {
	case IsRequestTopic(topic):
		return topic[3 : len(topic)-len("Request")]
	case IsResponseTopic(topic):
		return topic[3 : len(topic)-len("Reply")]
	}
	return ""
}

func init() {
	// Sanity: request/response classification must round-trip.
	for _, svc := range []string{"sv", "motion/plan"} {
		if ServiceOfTopic(ServiceRequestTopic(svc)) != svc {
			panic(fmt.Sprintf("dds: request topic round-trip broken for %q", svc))
		}
		if ServiceOfTopic(ServiceResponseTopic(svc)) != svc {
			panic(fmt.Sprintf("dds: response topic round-trip broken for %q", svc))
		}
	}
}
