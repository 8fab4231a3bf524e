package packet

import (
	"encoding/binary"
	"math/rand/v2"
)

// Packetizer converts encoded tuples into frames. It mirrors the egress
// workflow of the southbound transport library: multiple small tuples with
// the same source/destination are multiplexed into one frame; one tuple
// larger than the payload budget is segmented across several frames.
//
// The fast path is allocation-free in steady state: each destination stages
// directly into a pooled frame buffer (the tuple bytes are copied in as they
// arrive, so callers may reuse their encoding scratch immediately), and the
// slice of ready frames returned by Add/FlushAll is an internal scratch that
// is only valid until the next call. Emitted frame buffers are handed off to
// the caller, which hands them to the switch; they re-enter the pool at the
// receiving transport (see pool.go for the ownership protocol).
//
// Packetizer is not safe for concurrent use; each worker sender owns one.
type Packetizer struct {
	src        Addr
	maxPayload int
	nextSegID  uint32

	// Per-destination staging buffers. A destination's stage persists
	// across flushes while traffic keeps arriving (the frame buffer is
	// handed off on flush and lazily replaced from the pool on the next
	// Add), but a destination that goes quiet — placement churn, rescale,
	// a crashed downstream worker — is evicted after stageIdleFlushes
	// FlushAll generations so stale stages neither accumulate nor stretch
	// every future FlushAll sweep.
	staged map[Addr]*stage

	// flushGen counts FlushAll calls, the idle-eviction clock.
	flushGen uint64

	// lastDst/lastStage memoize the most recent destination's stage. Real
	// senders emit runs of tuples toward the same downstream task (a batch
	// routed by key or round-robin), so the common Add skips the map lookup.
	lastDst   Addr
	lastStage *stage

	// ready is the reusable container returned by Add and FlushAll.
	ready [][]byte
}

// stageIdleFlushes is how many FlushAll generations a destination may sit
// empty before its stage is evicted. Flushes run at batch cadence
// (milliseconds), so live destinations refresh constantly and eviction
// only ever collects genuinely dead ones.
const stageIdleFlushes = 8

type stage struct {
	// buf is the frame under construction: header followed by staged
	// length-prefixed tuples. nil between a flush and the next Add.
	buf   []byte
	count int // staged tuples

	// lastUsed is the flush generation of the most recent Add.
	lastUsed uint64
}

// payloadLen reports the staged payload bytes (excluding the frame header).
func (st *stage) payloadLen() int {
	if st.buf == nil {
		return 0
	}
	return len(st.buf) - HeaderLen
}

// NewPacketizer builds a Packetizer for a sender address. maxPayload <= 0
// selects DefaultMaxPayload. A receiver keys reassembly by (source, segment
// ID), and every controller sends from ControllerAddr, so a controller's
// segment IDs start at a random value rather than at 0.
func NewPacketizer(src Addr, maxPayload int) *Packetizer {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	p := &Packetizer{src: src, maxPayload: maxPayload, staged: make(map[Addr]*stage)}
	if src == ControllerAddr {
		p.nextSegID = rand.Uint32()
	}
	return p
}

// MaxPayload returns the frame payload budget.
func (p *Packetizer) MaxPayload() int { return p.maxPayload }

// Add stages one encoded tuple for dst and returns any frames that became
// ready (a full multiplexed frame, or the complete segment train of an
// oversized tuple). The tuple bytes are copied into the staging buffer, so
// the caller may reuse encoded immediately. The returned slice is reused by
// the next Add/FlushAll call; consume it before then.
func (p *Packetizer) Add(dst Addr, encoded []byte) [][]byte {
	p.ready = p.ready[:0]
	need := 4 + len(encoded)
	if need > p.maxPayload {
		// Oversized: flush whatever is staged for this destination first so
		// ordering is preserved, then emit the segment train.
		p.flushDst(dst)
		return p.segment(dst, encoded)
	}
	st := p.stageFor(dst)
	if st.payloadLen()+need > p.maxPayload {
		p.flushDst(dst)
	}
	if st.buf == nil {
		st.buf = appendHeader(GetFrameBuf(), dst, p.src, flagTuples)
	}
	st.buf = binary.LittleEndian.AppendUint32(st.buf, uint32(len(encoded)))
	st.buf = append(st.buf, encoded...)
	st.count++
	return p.ready
}

// stageFor returns dst's stage, creating it on first use, and marks it live
// for the idle-eviction clock.
func (p *Packetizer) stageFor(dst Addr) *stage {
	st := p.lastStage
	if st == nil || p.lastDst != dst {
		st = p.staged[dst]
		if st == nil {
			st = &stage{}
			p.staged[dst] = st
		}
		p.lastDst, p.lastStage = dst, st
	}
	st.lastUsed = p.flushGen
	return st
}

// Reserve and Commit are Add for a caller that can encode where the bytes
// leave: Reserve returns dst's staging frame extended by an empty 4-byte
// length slot, the caller appends exactly one encoded tuple behind it, and
// Commit patches the slot and counts the tuple, so the record is written
// once instead of encoded elsewhere and copied in. The frame is not changed
// until Commit: a Reserve that is never committed stages nothing.
func (p *Packetizer) Reserve(dst Addr) []byte {
	st := p.stageFor(dst)
	if st.buf == nil {
		st.buf = appendHeader(GetFrameBuf(), dst, p.src, flagTuples)
	}
	return append(st.buf, 0, 0, 0, 0)
}

// Commit stages the record the caller appended to buf, the slice Reserve
// returned for dst, and returns any frames that became ready, under Add's
// contract. A record that overruns the payload budget is handed to Add from
// where it lies — what was staged leaves first, then the record is restaged
// or segmented — so the frames are the ones Add alone would have built.
func (p *Packetizer) Commit(dst Addr, buf []byte) [][]byte {
	st := p.stageFor(dst)
	slot := len(st.buf)
	if len(buf)-HeaderLen > p.maxPayload {
		return p.Add(dst, buf[slot+4:])
	}
	p.ready = p.ready[:0]
	binary.LittleEndian.PutUint32(buf[slot:], uint32(len(buf)-slot-4))
	st.buf = buf
	st.count++
	return p.ready
}

// FlushAll emits one frame per destination with staged tuples. The worker
// I/O layer calls this when the configurable batch threshold is reached or a
// batch timer fires. Destinations idle for more than stageIdleFlushes
// flush generations are evicted on the way through, returning any staged
// buffer to the pool. The returned slice is reused by the next
// Add/FlushAll call; consume it before then.
func (p *Packetizer) FlushAll() [][]byte {
	p.ready = p.ready[:0]
	p.flushGen++
	for dst, st := range p.staged {
		if st.count > 0 {
			p.flushDst(dst)
			continue
		}
		if p.flushGen-st.lastUsed > stageIdleFlushes {
			if st.buf != nil {
				// A header-only buffer: Reserve built it and the record
				// that followed was segmented or never committed.
				PutFrameBuf(st.buf)
			}
			if st == p.lastStage {
				p.lastStage = nil
			}
			delete(p.staged, dst)
		}
	}
	return p.ready
}

// Stages reports the number of per-destination staging buffers currently
// held (live plus not-yet-evicted idle ones).
func (p *Packetizer) Stages() int { return len(p.staged) }

// Pending reports the number of tuples currently staged across all
// destinations.
func (p *Packetizer) Pending() int {
	n := 0
	for _, st := range p.staged {
		n += st.count
	}
	return n
}

// flushDst moves dst's staged frame (if any) onto p.ready.
func (p *Packetizer) flushDst(dst Addr) {
	st := p.staged[dst]
	if st == nil || st.count == 0 {
		return
	}
	p.ready = append(p.ready, st.buf)
	st.buf = nil
	st.count = 0
}

// segment appends the fragment train of one oversized tuple to p.ready.
func (p *Packetizer) segment(dst Addr, encoded []byte) [][]byte {
	chunk := p.maxPayload - segHeaderLen
	count := (len(encoded) + chunk - 1) / chunk
	id := p.nextSegID
	p.nextSegID++
	for i := 0; i < count; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if hi > len(encoded) {
			hi = len(encoded)
		}
		p.ready = append(p.ready, appendSegment(GetFrameBuf(), dst, p.src, Segment{
			ID:    id,
			Index: uint16(i),
			Count: uint16(count),
			Data:  encoded[lo:hi],
		}))
	}
	return p.ready
}

// Incoming is one reassembled encoded tuple together with its source.
type Incoming struct {
	Src  Addr
	Dst  Addr
	Data []byte
}

// maxReassemblies bounds in-flight segment reassembly state per
// Depacketizer; beyond it the oldest entry is evicted (its tuple is lost,
// which the switch-loss handling of the paper's §8 already tolerates).
const maxReassemblies = 1024

// Depacketizer converts received frames back into encoded tuples, handling
// demultiplexing and segment reassembly (ingress workflow of the southbound
// library). It is not safe for concurrent use.
type Depacketizer struct {
	partial map[reasmKey]*reassembly
	order   []reasmKey // FIFO of live reassemblies, for eviction

	// out and tuples are the reusable containers of Feed's hot path.
	out    []Incoming
	tuples [][]byte
}

type reasmKey struct {
	src Addr
	id  uint32
}

type reassembly struct {
	dst      Addr
	parts    [][]byte
	received int
}

// NewDepacketizer builds an empty Depacketizer.
func NewDepacketizer() *Depacketizer {
	return &Depacketizer{partial: make(map[reasmKey]*reassembly)}
}

// Feed consumes one raw frame and returns any complete tuples it yields.
// Returned Data slices alias raw for multiplexed frames, and the returned
// slice itself is reused by the next Feed call; callers that retain either
// across Feed calls must copy.
func (d *Depacketizer) Feed(raw []byte) ([]Incoming, error) {
	f, err := decodeInto(raw, d.tuples[:0])
	if err != nil {
		return nil, err
	}
	d.out = d.out[:0]
	if f.Segment == nil {
		d.tuples = f.Tuples // keep the (possibly regrown) scratch
		for _, t := range f.Tuples {
			d.out = append(d.out, Incoming{Src: f.Src, Dst: f.Dst, Data: t})
		}
		return d.out, nil
	}
	seg := f.Segment
	if seg.Count == 0 || seg.Index >= seg.Count {
		return nil, ErrCorruptFrame
	}
	key := reasmKey{src: f.Src, id: seg.ID}
	r := d.partial[key]
	if r == nil {
		r = &reassembly{dst: f.Dst, parts: make([][]byte, seg.Count)}
		d.partial[key] = r
		d.order = append(d.order, key)
		d.evict()
	}
	if int(seg.Count) != len(r.parts) {
		return nil, ErrCorruptFrame
	}
	if r.parts[seg.Index] == nil {
		// Segments must be copied: the fragment aliases the caller's buffer
		// but outlives this call.
		buf := make([]byte, len(seg.Data))
		copy(buf, seg.Data)
		r.parts[seg.Index] = buf
		r.received++
	}
	if r.received < len(r.parts) {
		return nil, nil
	}
	size := 0
	for _, p := range r.parts {
		size += len(p)
	}
	data := make([]byte, 0, size)
	for _, p := range r.parts {
		data = append(data, p...)
	}
	delete(d.partial, key)
	d.compact(key)
	d.out = append(d.out, Incoming{Src: f.Src, Dst: r.dst, Data: data})
	return d.out, nil
}

// PendingReassemblies reports in-flight segment reassembly count.
func (d *Depacketizer) PendingReassemblies() int { return len(d.partial) }

// compact removes a completed reassembly's key from the eviction FIFO so
// order cannot grow past maxReassemblies plus the map population: without
// this, completed entries lingered in the slice until they aged to the
// front, and a long-lived transport could accumulate an unbounded tail.
func (d *Depacketizer) compact(done reasmKey) {
	for i, k := range d.order {
		if k == done {
			d.order = append(d.order[:i], d.order[i+1:]...)
			return
		}
	}
}

func (d *Depacketizer) evict() {
	for len(d.partial) > maxReassemblies && len(d.order) > 0 {
		k := d.order[0]
		d.order = d.order[1:]
		delete(d.partial, k)
	}
}
