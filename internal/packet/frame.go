package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// HeaderLen is the size of the frame header: dst(6) src(6) ethertype(2)
// flags(1) — the low flag bits distinguish multiplexed-tuple payloads from
// segment payloads; the high bit marks an optional trace annex (trace.go)
// between the header and the payload.
const HeaderLen = 6 + 6 + 2 + 1

// Frame payload flavours (low bits of the flags byte).
const (
	flagTuples  = 0x00 // payload is a sequence of length-prefixed tuples
	flagSegment = 0x01 // payload is one fragment of a segmented tuple

	flagKindMask = 0x7F // payload flavour bits (flagTraced is the high bit)
)

// segHeaderLen is the extra header inside segment payloads:
// segID(4) index(2) count(2) fragLen(4).
const segHeaderLen = 4 + 2 + 2 + 4

// DefaultMaxPayload is the default frame payload capacity. The prototype
// runs on DPDK with jumbo-capable rings; 8 KiB keeps segmentation exercised
// without making it the common case.
const DefaultMaxPayload = 8192

// Frame is a decoded Typhoon data-plane frame.
type Frame struct {
	Dst       Addr
	Src       Addr
	EtherType uint16
	// Segment is non-nil when the frame carries one fragment of a large
	// tuple; Tuples is then empty.
	Segment *Segment
	// Tuples holds the encoded bytes of each multiplexed tuple. The slices
	// alias the decode buffer.
	Tuples [][]byte
	// Trace is the decoded trace annex of a sampled frame, nil otherwise.
	Trace *TraceAnnex
}

// Segment describes one fragment of a tuple too large for a single frame.
type Segment struct {
	ID    uint32 // per-sender segmented-tuple sequence number
	Index uint16 // fragment index, 0-based
	Count uint16 // total number of fragments
	Data  []byte // fragment payload
}

// Errors returned by Decode.
var (
	ErrShortFrame   = errors.New("packet: frame shorter than header")
	ErrBadEtherType = errors.New("packet: unexpected ethertype")
	ErrCorruptFrame = errors.New("packet: corrupt frame payload")
)

// EncodeTuples builds a frame carrying the given pre-encoded tuples, which
// must jointly fit the payload budget (the Packetizer guarantees this).
func EncodeTuples(dst, src Addr, encoded [][]byte) []byte {
	size := HeaderLen
	for _, e := range encoded {
		size += 4 + len(e)
	}
	buf := make([]byte, 0, size)
	buf = appendHeader(buf, dst, src, flagTuples)
	for _, e := range encoded {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e)))
		buf = append(buf, e...)
	}
	return buf
}

// EncodeSegment builds a frame carrying one fragment of a segmented tuple.
func EncodeSegment(dst, src Addr, seg Segment) []byte {
	return appendSegment(make([]byte, 0, HeaderLen+segHeaderLen+len(seg.Data)), dst, src, seg)
}

// appendSegment appends a segment frame to buf (the zero-alloc path when buf
// comes from the frame pool).
func appendSegment(buf []byte, dst, src Addr, seg Segment) []byte {
	buf = appendHeader(buf, dst, src, flagSegment)
	buf = binary.LittleEndian.AppendUint32(buf, seg.ID)
	buf = binary.LittleEndian.AppendUint16(buf, seg.Index)
	buf = binary.LittleEndian.AppendUint16(buf, seg.Count)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(seg.Data)))
	buf = append(buf, seg.Data...)
	return buf
}

func appendHeader(buf []byte, dst, src Addr, flags byte) []byte {
	buf = append(buf, dst[:]...)
	buf = append(buf, src[:]...)
	buf = binary.BigEndian.AppendUint16(buf, EtherType)
	buf = append(buf, flags)
	return buf
}

// frameBody is the one walker of the frame header and trace annex, shared by
// Decode, TupleCount and TupleRun. It checks the header, steps over the annex
// of a traced frame (returned undecoded, its shape checked) and returns the
// payload flavour with the payload bytes that follow.
func frameBody(raw []byte) (kind byte, annex, body []byte, err error) {
	if len(raw) < HeaderLen {
		return 0, nil, nil, ErrShortFrame
	}
	if binary.BigEndian.Uint16(raw[12:14]) != EtherType {
		return 0, nil, nil, ErrBadEtherType
	}
	flags := raw[14]
	body = raw[HeaderLen:]
	if flags&flagTraced != 0 {
		if len(body) < 2 {
			return 0, nil, nil, ErrCorruptFrame
		}
		n := int(binary.LittleEndian.Uint16(body))
		if n > len(body)-2 {
			return 0, nil, nil, ErrCorruptFrame
		}
		annex = body[2 : 2+n]
		if _, ok := traceHopCount(annex); !ok {
			return 0, nil, nil, ErrCorruptFrame
		}
		body = body[2+n:]
	}
	kind = flags & flagKindMask
	if kind != flagTuples && kind != flagSegment {
		return 0, nil, nil, fmt.Errorf("packet: unknown frame flags %#x", flags)
	}
	return kind, annex, body, nil
}

// NextTuple splits the first uint32-length-prefixed encoded tuple off a
// multiplexed frame's payload. ok is false when the prefix is cut short or
// overruns what is left of the run.
func NextTuple(run []byte) (enc, rest []byte, ok bool) {
	if len(run) < 4 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(run))
	run = run[4:]
	if n > len(run) {
		return nil, nil, false
	}
	return run[:n], run[n:], true
}

// TupleRun returns the payload of a multiplexed frame — a run of encoded
// tuples to walk with NextTuple — without building a Frame. The run aliases
// raw. multiplexed is false for a segment frame, which belongs to a
// Depacketizer. TupleRun fails where Decode fails on the header, the trace
// annex or the flags; the run's length prefixes are the walk's to check.
func TupleRun(raw []byte) (run []byte, multiplexed bool, err error) {
	kind, _, body, err := frameBody(raw)
	if err != nil || kind != flagTuples {
		return nil, false, err
	}
	return body, true, nil
}

// TupleCount reports how many tuples a raw frame carries without decoding
// any of them: a multiplexed frame is walked by its length prefixes, a
// segment frame counts as 1 (one fragment of one tuple), and a trace annex
// is skipped. Malformed frames report 0. The trace path uses it to record
// one hop per batch frame annotated with the batch's population.
func TupleCount(raw []byte) int {
	kind, _, body, err := frameBody(raw)
	if err != nil {
		return 0
	}
	if kind == flagSegment {
		return 1
	}
	count := 0
	for len(body) > 0 {
		var ok bool
		if _, body, ok = NextTuple(body); !ok {
			return 0
		}
		count++
	}
	return count
}

// PeekAddrs extracts the destination and source addresses without a full
// decode; the switch data path matches on these fields only.
func PeekAddrs(raw []byte) (dst, src Addr, ok bool) {
	if len(raw) < HeaderLen {
		return dst, src, false
	}
	copy(dst[:], raw[0:6])
	copy(src[:], raw[6:12])
	if binary.BigEndian.Uint16(raw[12:14]) != EtherType {
		return dst, src, false
	}
	return dst, src, true
}

// RewriteDst overwrites the destination address in place. The SDN load
// balancer (paper §4) uses this in switch group buckets.
func RewriteDst(raw []byte, dst Addr) bool {
	if len(raw) < HeaderLen {
		return false
	}
	copy(raw[0:6], dst[:])
	return true
}

// Decode parses raw into a Frame. Tuple and segment slices alias raw.
func Decode(raw []byte) (Frame, error) { return decodeInto(raw, nil) }

// decodeInto is Decode with a caller-supplied tuple-slice scratch so the hot
// receive path (Depacketizer.Feed) avoids growing a fresh Tuples slice per
// frame.
func decodeInto(raw []byte, tuples [][]byte) (Frame, error) {
	kind, annex, body, err := frameBody(raw)
	if err != nil {
		return Frame{}, err
	}
	f := Frame{EtherType: EtherType}
	copy(f.Dst[:], raw[0:6])
	copy(f.Src[:], raw[6:12])
	if annex != nil {
		a, err := decodeTraceAnnex(annex)
		if err != nil {
			return Frame{}, ErrCorruptFrame
		}
		f.Trace = &a
	}
	if kind == flagTuples {
		f.Tuples = tuples
		for len(body) > 0 {
			enc, rest, ok := NextTuple(body)
			if !ok {
				return Frame{}, ErrCorruptFrame
			}
			f.Tuples = append(f.Tuples, enc)
			body = rest
		}
		return f, nil
	}
	if len(body) < segHeaderLen {
		return Frame{}, ErrCorruptFrame
	}
	seg := Segment{
		ID:    binary.LittleEndian.Uint32(body),
		Index: binary.LittleEndian.Uint16(body[4:]),
		Count: binary.LittleEndian.Uint16(body[6:]),
	}
	if n := int(binary.LittleEndian.Uint32(body[8:])); n != len(body)-segHeaderLen {
		return Frame{}, ErrCorruptFrame
	}
	seg.Data = body[segHeaderLen:]
	f.Segment = &seg
	return f, nil
}
