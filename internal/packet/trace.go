package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
)

// Tuple-path tracing: a sampled frame carries an optional trace annex — a
// compact hop log appended to by every element the frame traverses (worker
// emit, switch ingress, flow-rule match, egress/replication, tunnel, worker
// dequeue). The annex rides inside the 0xFFFF frame between the header and
// the payload, so it crosses tunnels and switch replication unchanged, and
// untraced frames pay only a one-byte flag test.

// HopKind identifies one stage of a frame's path through the data plane.
type HopKind uint8

// Hop kinds, in the order they typically appear in a trace.
const (
	// HopEmit is recorded by the sending worker's I/O layer when the frame
	// leaves the packetizer — once per batch frame, not per tuple. Actor is
	// the worker ID, Detail the frame's tuple count (TupleCount).
	HopEmit HopKind = iota + 1
	// HopSwitchIn is recorded at switch ingress. Actor is the datapath ID,
	// Detail the ingress port number.
	HopSwitchIn
	// HopMatch is recorded when a flow rule matches. Actor is the datapath
	// ID, Detail the rule priority.
	HopMatch
	// HopEgress is recorded per delivered copy at a worker port. Actor is
	// the datapath ID, Detail the egress port number. A replicated frame
	// (GroupAll / multi-output rules) carries one HopEgress per copy only on
	// the copy itself; the trace of each copy shows its own egress.
	HopEgress
	// HopTunnel is recorded when the frame leaves through a tunnel port
	// toward a remote host. Actor is the datapath ID, Detail the tunnel
	// port number.
	HopTunnel
	// HopController is recorded when the frame is punted to the SDN
	// controller (PACKET_IN). Actor is the datapath ID.
	HopController
	// HopDequeue is recorded by the receiving worker's I/O layer when the
	// frame is read back out of its switch port — once per batch frame.
	// Actor is the worker ID, Detail the frame's tuple count.
	HopDequeue
)

// String names the hop kind for rendering.
func (k HopKind) String() string {
	switch k {
	case HopEmit:
		return "emit"
	case HopSwitchIn:
		return "switch-in"
	case HopMatch:
		return "match"
	case HopEgress:
		return "egress"
	case HopTunnel:
		return "tunnel"
	case HopController:
		return "controller"
	case HopDequeue:
		return "dequeue"
	default:
		return "hop(" + strconv.Itoa(int(k)) + ")"
	}
}

// TraceHop is one recorded stage of a traced frame's path.
type TraceHop struct {
	// Kind identifies the stage.
	Kind HopKind `json:"kind"`
	// Actor is the element that recorded the hop: a worker ID for
	// emit/dequeue hops, a datapath ID for switch hops.
	Actor uint64 `json:"actor"`
	// Detail is stage-specific: port number, rule priority, or the batch
	// frame's tuple count for emit/dequeue hops.
	Detail uint32 `json:"detail"`
	// At is the hop's wall-clock time in Unix nanoseconds.
	At int64 `json:"at"`
}

// TraceAnnex is the hop log carried by a traced frame.
type TraceAnnex struct {
	// ID identifies the trace; unique per sampled frame per sender.
	ID uint64 `json:"id"`
	// Hops are the recorded stages in traversal order.
	Hops []TraceHop `json:"hops"`
}

// MaxTraceHops caps the hops one annex can carry; appends beyond the cap
// are silently dropped so a forwarding loop cannot grow frames unboundedly.
const MaxTraceHops = 32

const (
	flagTraced     = 0x80  // flags bit: trace annex present after the header
	traceFixedLen  = 8 + 1 // id + hop count
	traceHopEncLen = 1 + 8 + 4 + 8
)

// ErrBadTrace is returned when a trace annex is malformed.
var ErrBadTrace = errors.New("packet: malformed trace annex")

// Traced reports whether the raw frame carries a trace annex. It is the
// cheap test the switch data path performs on every frame.
func Traced(raw []byte) bool {
	return len(raw) >= HeaderLen && raw[14]&flagTraced != 0
}

func appendTraceAnnex(buf []byte, a TraceAnnex) []byte {
	n := len(a.Hops)
	if n > MaxTraceHops {
		n = MaxTraceHops
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(traceFixedLen+n*traceHopEncLen))
	buf = binary.LittleEndian.AppendUint64(buf, a.ID)
	buf = append(buf, byte(n))
	for _, h := range a.Hops[:n] {
		buf = append(buf, byte(h.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, h.Actor)
		buf = binary.LittleEndian.AppendUint32(buf, h.Detail)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(h.At))
	}
	return buf
}

// traceHopCount returns the hop count of a well-formed annex: the fixed part
// followed by exactly the hops its count byte announces.
func traceHopCount(body []byte) (n int, ok bool) {
	if len(body) < traceFixedLen {
		return 0, false
	}
	n = int(body[8])
	return n, len(body) == traceFixedLen+n*traceHopEncLen
}

func decodeTraceAnnex(body []byte) (TraceAnnex, error) {
	n, ok := traceHopCount(body)
	if !ok {
		return TraceAnnex{}, ErrBadTrace
	}
	a := TraceAnnex{ID: binary.LittleEndian.Uint64(body)}
	a.Hops = make([]TraceHop, n)
	for i := 0; i < n; i++ {
		off := traceFixedLen + i*traceHopEncLen
		a.Hops[i] = TraceHop{
			Kind:   HopKind(body[off]),
			Actor:  binary.LittleEndian.Uint64(body[off+1:]),
			Detail: binary.LittleEndian.Uint32(body[off+9:]),
			At:     int64(binary.LittleEndian.Uint64(body[off+13:])),
		}
	}
	return a, nil
}

// traceAnnexBounds locates the annex within a traced frame: the annex bytes
// span raw[HeaderLen+2 : HeaderLen+2+n]. ok is false for untraced or
// malformed frames.
func traceAnnexBounds(raw []byte) (n int, ok bool) {
	if !Traced(raw) || len(raw) < HeaderLen+2 {
		return 0, false
	}
	n = int(binary.LittleEndian.Uint16(raw[HeaderLen:]))
	if n < traceFixedLen || len(raw) < HeaderLen+2+n {
		return 0, false
	}
	return n, true
}

// WithTrace rebuilds an untraced frame with the given annex attached. It
// returns raw unchanged when the frame is already traced or too short.
func WithTrace(raw []byte, a TraceAnnex) []byte {
	if len(raw) < HeaderLen || Traced(raw) {
		return raw
	}
	buf := make([]byte, 0, len(raw)+2+traceFixedLen+len(a.Hops)*traceHopEncLen)
	buf = append(buf, raw[:HeaderLen]...)
	buf[14] |= flagTraced
	buf = appendTraceAnnex(buf, a)
	return append(buf, raw[HeaderLen:]...)
}

// AppendTraceHop returns a copy of the traced frame with one more hop in
// its annex. It returns raw unchanged when the frame is untraced, the annex
// is malformed, or the hop cap is reached. The input frame is never
// mutated, so callers may freely alias it across replicated deliveries.
func AppendTraceHop(raw []byte, hop TraceHop) []byte {
	n, ok := traceAnnexBounds(raw)
	if !ok {
		return raw
	}
	annexEnd := HeaderLen + 2 + n
	count, ok := traceHopCount(raw[HeaderLen+2 : annexEnd])
	if !ok || count >= MaxTraceHops {
		return raw
	}
	buf := make([]byte, 0, len(raw)+traceHopEncLen)
	buf = append(buf, raw[:annexEnd]...)
	binary.LittleEndian.PutUint16(buf[HeaderLen:], uint16(n+traceHopEncLen))
	buf[HeaderLen+2+8] = byte(count + 1)
	buf = append(buf, byte(hop.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, hop.Actor)
	buf = binary.LittleEndian.AppendUint32(buf, hop.Detail)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(hop.At))
	return append(buf, raw[annexEnd:]...)
}

// ExtractTrace decodes the annex of a traced frame without decoding the
// payload (the receive-side I/O layer uses it before depacketizing).
func ExtractTrace(raw []byte) (TraceAnnex, bool) {
	n, ok := traceAnnexBounds(raw)
	if !ok {
		return TraceAnnex{}, false
	}
	a, err := decodeTraceAnnex(raw[HeaderLen+2 : HeaderLen+2+n])
	if err != nil {
		return TraceAnnex{}, false
	}
	return a, true
}

// String renders the annex as a one-line hop chain for logs.
func (a TraceAnnex) String() string {
	s := fmt.Sprintf("trace %#x:", a.ID)
	for _, h := range a.Hops {
		s += fmt.Sprintf(" %s(%d/%d)", h.Kind, h.Actor, h.Detail)
	}
	return s
}
