package worker

import (
	"sync/atomic"
	"time"

	"typhoon/internal/clock"
	"typhoon/internal/packet"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// SDNTransport is the Typhoon I/O layer of §3.3.1: it converts tuples to
// custom Ethernet frames and exchanges them with the host's software SDN
// switch through ring-buffer ports.
//
// The decisive property for one-to-many routing (Fig 9) is implemented
// here: a broadcast destination costs exactly one serialization and one
// frame regardless of fan-out, because replication happens in the switch.
type SDNTransport struct {
	app  uint16
	self topology.WorkerID
	port *switchfabric.Port

	pktz  *packet.Packetizer
	dpktz *packet.Depacketizer

	// batch is the flush threshold; sinceFlush counts the tuples staged
	// since the last Flush, and zero means the packetizer holds nothing.
	batch      atomic.Int64
	sinceFlush int

	// rxBatch is Recv's reusable frame batch. Send/Recv run on the worker
	// goroutine only.
	rxBatch [][]byte

	// arena supplies the receive path's tuple storage (values + string
	// bytes); ownership of decoded regions transfers to the tuples, so
	// retained tuples stay valid forever while steady-state decode costs
	// ~0 allocations per tuple.
	arena tuple.Arena

	// inBuf is the reusable decode buffer; inQueue is its not-yet-delivered
	// window. Recv hands out sub-slices of inBuf directly (valid until the
	// next Recv), so delivery itself allocates nothing. Only the worker
	// goroutine touches the slices; inLen mirrors the queue length so
	// InQueueLen can be read from other goroutines (stats, auto-scaler).
	inBuf   []tuple.Tuple
	inQueue []tuple.Tuple
	inLen   atomic.Int64
	// ctlBuf holds control-lane tuples, handed out ahead of inQueue.
	ctlBuf []tuple.Tuple

	sampler FrameSampler
	sink    func(packet.TraceAnnex)

	// nSent and nSerialized are Send's tallies, plain because Send runs on
	// the worker goroutine alone; publishTallies adds them to tuplesSent and
	// serializations before any frame leaves and on every Flush, so a reader
	// that has seen a tuple delivered also sees its send counted.
	nSent, nSerialized uint64

	tuplesSent     atomic.Uint64
	serializations atomic.Uint64
	framesSent     atomic.Uint64
	dropped        atomic.Uint64
	tuplesReceived atomic.Uint64
}

// FrameSampler decides which emitted frames carry a tuple-path trace annex
// and allocates trace IDs. *observe.Sampler satisfies it; the indirection
// keeps the worker package free of an observe dependency.
type FrameSampler interface {
	// Sample reports whether the next frame should be traced and, if so,
	// returns its trace ID.
	Sample() (uint64, bool)
}

// SDNTransportConfig tunes an SDNTransport.
type SDNTransportConfig struct {
	// BatchSize is the number of tuples accumulated before frames are
	// flushed to the switch (the configurable batching knob of Fig 8).
	BatchSize int
	// MaxPayload caps frame payload size.
	MaxPayload int
	// Sampler, when set, selects emitted frames to carry a trace annex.
	Sampler FrameSampler
	// TraceSink, when set, receives completed trace annexes extracted from
	// frames this transport dequeues.
	TraceSink func(packet.TraceAnnex)
}

// DefaultBatchSize matches the batch size used by most of the paper's SDN
// control-plane experiments (§6.2).
const DefaultBatchSize = 100

// NewSDNTransport attaches a transport for worker self to a switch port.
func NewSDNTransport(app uint16, self topology.WorkerID, port *switchfabric.Port, cfg SDNTransportConfig) *SDNTransport {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	t := &SDNTransport{
		app:     app,
		self:    self,
		port:    port,
		pktz:    packet.NewPacketizer(packet.WorkerAddr(app, uint32(self)), cfg.MaxPayload),
		dpktz:   packet.NewDepacketizer(),
		sampler: cfg.Sampler,
		sink:    cfg.TraceSink,
	}
	t.batch.Store(int64(cfg.BatchSize))
	return t
}

// Addr returns this worker's data-plane address.
func (t *SDNTransport) Addr() packet.Addr { return packet.WorkerAddr(t.app, uint32(t.self)) }

// Send implements Transport. The tuple is serialized exactly once, straight
// into the staging frame it leaves in; unicast fan-out copies the encoded
// bytes into the other destinations' frames, and broadcast emits a single
// frame the switch replicates.
func (t *SDNTransport) Send(d Destination, in tuple.Tuple) error {
	switch {
	case d.Broadcast, d.SDNBalanced:
		t.stage(packet.Broadcast, nil, in)
	case len(d.Workers) > 0:
		t.stage(packet.WorkerAddr(t.app, uint32(d.Workers[0])), d.Workers[1:], in)
	}
	if int64(t.sinceFlush) >= t.batch.Load() {
		return t.Flush()
	}
	return nil
}

// stage encodes in behind a reserved length slot in first's staging frame —
// the one serialization — copies the record from there into the frames of
// the other destinations, and commits it. The copies go first because the
// record is only certain to stay where it was encoded until Commit, which
// hands the frame off when the record overran it.
func (t *SDNTransport) stage(first packet.Addr, others []topology.WorkerID, in tuple.Tuple) {
	buf := t.pktz.Reserve(first)
	slot := len(buf)
	buf = tuple.AppendEncode(buf, in)
	t.nSerialized++
	for _, id := range others {
		t.nSent++
		t.writeFrames(t.pktz.Add(packet.WorkerAddr(t.app, uint32(id)), buf[slot:]))
	}
	t.nSent++
	t.sinceFlush++
	t.writeFrames(t.pktz.Commit(first, buf))
}

// SendControl implements Transport: the tuple is addressed to the
// controller pseudo-address and flushed immediately (statistics replies
// should not sit in a batch).
func (t *SDNTransport) SendControl(in tuple.Tuple) error {
	t.stage(packet.ControllerAddr, nil, in)
	return t.Flush()
}

// Flush implements Transport. With nothing staged it returns at once: the
// worker loop flushes before every wait, and an empty FlushAll would still
// advance the packetizer's idle-eviction clock, evicting live destinations
// between two idle waits.
func (t *SDNTransport) Flush() error {
	if t.sinceFlush == 0 {
		return nil
	}
	t.sinceFlush = 0
	t.publishTallies()
	t.writeFrames(t.pktz.FlushAll())
	return nil
}

// publishTallies makes Send's counts visible to Stats.
func (t *SDNTransport) publishTallies() {
	if t.nSerialized|t.nSent != 0 {
		t.serializations.Add(t.nSerialized)
		t.tuplesSent.Add(t.nSent)
		t.nSerialized, t.nSent = 0, 0
	}
}

// writeFrames pushes frames into the switch ingress ring with bounded
// blocking backpressure (modelling the DPDK TX ring).
func (t *SDNTransport) writeFrames(frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	t.publishTallies()
	for _, f := range frames {
		if t.sampler != nil {
			if id, ok := t.sampler.Sample(); ok {
				traced := packet.WithTrace(f, packet.TraceAnnex{ID: id, Hops: []packet.TraceHop{{
					Kind: packet.HopEmit, Actor: uint64(t.self), Detail: uint32(packet.TupleCount(f)),
					At: clock.CoarseUnixNano(),
				}}})
				packet.PutFrameBuf(f) // WithTrace copied; recycle the original
				f = traced
			}
		}
		if err := t.port.WriteFrameTimeout(f, switchfabric.WriteFrameWait); err != nil {
			t.dropped.Add(1)
			packet.PutFrameBuf(f) // never entered the ring; still solely ours
			continue
		}
		t.framesSent.Add(1)
	}
}

// Recv implements Transport. Control frames come first: the port's control
// lane is read before any data frame, and while decoded data waits, the
// lane's tuples make up the call's whole batch. Frames are decoded where they
// lie, in one pass from frame bytes to tuples through the transport's arena
// (~0 allocations per tuple in steady state). The returned slice is a window
// into a reusable decode buffer, valid only until the next Recv call; the
// tuples themselves own their storage and may be retained indefinitely.
func (t *SDNTransport) Recv(max int, wait time.Duration) ([]tuple.Tuple, error) {
	if max <= 0 {
		max = 256
	}
	if len(t.inQueue) > 0 {
		if frames := t.port.ReadControl(t.rxBatch[:0], max); len(frames) > 0 {
			t.rxBatch = frames
			if t.ctlBuf = t.decode(t.ctlBuf[:0], frames); len(t.ctlBuf) > 0 {
				t.tuplesReceived.Add(uint64(len(t.ctlBuf)))
				return t.ctlBuf, nil
			}
		}
	} else {
		frames, err := t.port.ReadBatch(t.rxBatch[:0], max, wait)
		if err != nil {
			return nil, errTransportClosed
		}
		t.rxBatch = frames
		t.inBuf = t.decode(t.inBuf[:0], frames)
		t.inQueue = t.inBuf
		t.inLen.Store(int64(len(t.inQueue)))
	}
	n := len(t.inQueue)
	if n == 0 {
		return nil, nil
	}
	if n > max {
		n = max
	}
	out := t.inQueue[:n]
	t.inQueue = t.inQueue[n:]
	t.inLen.Store(int64(len(t.inQueue)))
	t.tuplesReceived.Add(uint64(n))
	return out, nil
}

// decode appends the tuples of frames to dst, completing the trace annex of
// a traced frame on the way.
func (t *SDNTransport) decode(dst []tuple.Tuple, frames [][]byte) []tuple.Tuple {
	for _, fr := range frames {
		if t.sink != nil && packet.Traced(fr) {
			done := packet.AppendTraceHop(fr, packet.TraceHop{
				Kind: packet.HopDequeue, Actor: uint64(t.self), Detail: uint32(packet.TupleCount(fr)),
				At: clock.CoarseUnixNano(),
			})
			if annex, ok := packet.ExtractTrace(done); ok {
				t.sink(annex)
			}
		}
		dst = t.decodeFrame(dst, fr)
		// The unique-ownership protocol makes this transport the sole
		// owner of every frame it dequeues, and decoding copied every
		// payload into the arena, so the buffer can re-enter the pool.
		packet.PutFrameBuf(fr)
	}
	return dst
}

// decodeFrame appends the tuples fr carries to dst. A multiplexed frame is
// walked once, each record decoded off the frame as its length prefix is
// read; a segment frame goes through the depacketizer, which owns
// reassembly. A record that fails to decode costs that tuple and one drop;
// a frame whose header or prefixes do not parse delivers nothing and costs
// one drop, whatever decoded before the fault was found.
func (t *SDNTransport) decodeFrame(dst []tuple.Tuple, fr []byte) []tuple.Tuple {
	run, multiplexed, err := packet.TupleRun(fr)
	if err != nil {
		t.dropped.Add(1)
		return dst
	}
	if !multiplexed {
		ins, err := t.dpktz.Feed(fr)
		if err != nil {
			t.dropped.Add(1)
			return dst
		}
		for _, in := range ins {
			tp, _, err := tuple.DecodeInto(in.Data, &t.arena)
			if err != nil {
				t.dropped.Add(1)
				continue
			}
			dst = append(dst, tp)
		}
		return dst
	}
	// Tuples gather in out and reach dst only when the whole run has
	// parsed, so a frame that turns out unparsable delivers nothing.
	out, bad := dst, uint64(0)
	for len(run) > 0 {
		enc, rest, ok := packet.NextTuple(run)
		if !ok {
			t.dropped.Add(1)
			return dst
		}
		if tp, _, err := tuple.DecodeInto(enc, &t.arena); err != nil {
			bad++
		} else {
			out = append(out, tp)
		}
		run = rest
	}
	if bad > 0 {
		t.dropped.Add(bad)
	}
	return out
}

// SetBatchSize implements Transport: it adjusts the egress batch threshold.
func (t *SDNTransport) SetBatchSize(n int) {
	if n > 0 {
		t.batch.Store(int64(n))
	}
}

// BatchSize returns the current batch threshold.
func (t *SDNTransport) BatchSize() int { return int(t.batch.Load()) }

// InQueueLen implements Transport: decoded tuples awaiting dispatch plus
// frames queued in the switch port.
func (t *SDNTransport) InQueueLen() int { return int(t.inLen.Load()) + t.port.QueueLen() }

// Stats implements Transport.
func (t *SDNTransport) Stats() TransportStats {
	return TransportStats{
		TuplesSent:     t.tuplesSent.Load(),
		Serializations: t.serializations.Load(),
		FramesSent:     t.framesSent.Load(),
		Dropped:        t.dropped.Load(),
		TuplesReceived: t.tuplesReceived.Load(),
	}
}

// Close implements Transport. The switch port itself is owned by the
// worker agent, which removes it (triggering the PortStatus event).
func (t *SDNTransport) Close() error { return nil }

var _ Transport = (*SDNTransport)(nil)
