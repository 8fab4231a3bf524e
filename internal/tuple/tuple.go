// Package tuple defines the data model that flows through a Typhoon
// topology: dynamically typed tuples, stream identifiers, and a compact
// binary codec used by both the Typhoon data plane and the Storm-style
// baseline transport.
//
// A Tuple is an ordered list of Values plus the identifier of the stream it
// belongs to. Serialization cost is deliberately proportional to payload
// size: the paper's broadcast results (Fig 9) hinge on the baseline paying
// one serialization per destination while Typhoon pays exactly one.
package tuple

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// StreamID identifies a logical stream within a topology. Application
// streams use small values; the control plane reserves ControlStream.
type StreamID uint16

const (
	// DefaultStream is the stream used by components that do not declare
	// named output streams.
	DefaultStream StreamID = 0
	// SignalStream carries flush signals consumed by stateful workers.
	SignalStream StreamID = 0xFFFE
	// AckStream carries XOR acknowledgement tuples to acker workers when
	// guaranteed processing is enabled (§6.1 "tuple forwarding with
	// reliability guarantee").
	AckStream StreamID = 0xFFFD
	// CompleteStream carries tuple-tree completion notifications from
	// ackers back to the originating source workers.
	CompleteStream StreamID = 0xFFFC
	// ControlStream is the dedicated stream ID for control tuples injected
	// by the SDN controller (see Table 2 of the paper).
	ControlStream StreamID = 0xFFFF
)

// IsControl reports whether the stream carries control tuples.
func (s StreamID) IsControl() bool { return s == ControlStream }

// IsSignal reports whether the stream carries flush signals.
func (s StreamID) IsSignal() bool { return s == SignalStream }

// Kind enumerates the dynamic types a Value may hold.
type Kind uint8

// Value kinds understood by the codec.
const (
	KindNil Kind = iota
	KindInt64
	KindFloat64
	KindBool
	KindString
	KindBytes
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindInt64:
		return "int64"
	case KindFloat64:
		return "float64"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Value is a single dynamically typed field of a Tuple.
//
// It is 24 bytes with exactly one pointer word, because a value holds at
// most one payload: the first word packs the kind with a 32-bit payload
// length, num carries the raw int64/float64/bool bits, and ptr addresses the
// first byte of a string's or a byte slice's data (nil for every other kind
// and for an empty payload that had no backing array). A decoded field is
// therefore 24 bytes of slab the collector scans for one pointer, where a
// {kind, num, string, []byte} struct would be 56 bytes with two.
//
// The 32-bit length is the wire format's own bound — string and bytes
// payloads travel behind a uint32 length prefix — so String and Bytes refuse
// a payload of 4 GiB or more up front rather than let the codec write a
// truncated prefix for it.
//
// Ownership does not depend on the layout: String and Bytes keep a reference
// to the caller's data without copying it, and the decoders copy payloads
// into storage the tuple owns (see Arena).
//
// The zero-size func array keeps Value non-comparable: == on two Values
// would compare payload pointers, not payloads. Use Equal.
type Value struct {
	_    [0]func()
	kind Kind
	n    uint32         // payload length in bytes (KindString, KindBytes)
	num  uint64         // int64 bits, float64 bits, or bool
	ptr  unsafe.Pointer // payload data (KindString, KindBytes)
}

// payloadLen returns n as the 32-bit length stored in a Value, refusing what
// the codec's uint32 length prefix could not carry.
func payloadLen(n int) uint32 {
	if uint64(n) > math.MaxUint32 {
		panicPayloadTooLarge(n)
	}
	return uint32(n)
}

// panicPayloadTooLarge is kept out of line so String and Bytes stay within
// the inlining budget.
//
//go:noinline
func panicPayloadTooLarge(n int) {
	panic(fmt.Sprintf("tuple: %d-byte payload exceeds the 4 GiB limit of a value's uint32 length prefix", n))
}

// Int returns a Value holding an int64.
func Int(v int64) Value { return Value{kind: KindInt64, num: uint64(v)} }

// Float returns a Value holding a float64.
func Float(v float64) Value { return Value{kind: KindFloat64, num: math.Float64bits(v)} }

// Bool returns a Value holding a bool.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// String returns a Value holding a string. It panics if v is 4 GiB or
// longer.
func String(v string) Value {
	return Value{kind: KindString, n: payloadLen(len(v)), ptr: unsafe.Pointer(unsafe.StringData(v))}
}

// Bytes returns a Value holding a byte slice. The slice is not copied; any
// capacity beyond its length is not retained. It panics if v is 4 GiB or
// longer.
func Bytes(v []byte) Value {
	return Value{kind: KindBytes, n: payloadLen(len(v)), ptr: unsafe.Pointer(unsafe.SliceData(v))}
}

// Nil returns the nil Value.
func Nil() Value { return Value{kind: KindNil} }

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the int64 payload. It does not check the kind: for a float
// it is the IEEE 754 bit pattern, for a bool 0 or 1, and for nil, string and
// bytes values 0.
func (v Value) AsInt() int64 { return int64(v.num) }

// AsFloat returns the float64 payload. It does not check the kind: an int
// or bool is reinterpreted bit for bit (Int(1).AsFloat() is 5e-324, not 1),
// and nil, string and bytes values read as 0.
func (v Value) AsFloat() float64 { return math.Float64frombits(v.num) }

// AsBool returns the bool payload. It does not check the kind: any int or
// float whose bits are not all zero reads as true, and nil, string and
// bytes values as false.
func (v Value) AsBool() bool { return v.num != 0 }

// AsString returns the string payload; it is "" for non-string values.
func (v Value) AsString() string {
	if v.kind != KindString {
		return ""
	}
	return v.payload()
}

// AsBytes returns the bytes payload; it is nil for non-bytes values. The
// slice shares the value's storage and its capacity equals its length, so an
// append never writes into memory the value's producer still owns.
func (v Value) AsBytes() []byte {
	if v.kind != KindBytes {
		return nil
	}
	return unsafe.Slice((*byte)(v.ptr), v.n)
}

// payload views a string or bytes value's data as a string without copying
// it; it is "" for every other kind. The view of a bytes value is only as
// immutable as its slice, so it must not outlive the call that takes it.
func (v Value) payload() string { return unsafe.String((*byte)(v.ptr), v.n) }

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	return v.kind == o.kind && v.num == o.num && v.payload() == o.payload()
}

// GoString renders the value for debugging.
func (v Value) GoString() string { return v.String() }

func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindInt64:
		return strconv.FormatInt(v.AsInt(), 10)
	case KindFloat64:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.AsBool())
	case KindString:
		return strconv.Quote(v.AsString())
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", v.n)
	default:
		return "invalid"
	}
}

// encodedSize returns the number of bytes Value occupies on the wire,
// excluding the 1-byte kind tag.
func (v Value) encodedSize() int {
	switch v.kind {
	case KindNil:
		return 0
	case KindBool:
		return 1
	case KindInt64, KindFloat64:
		return 8
	case KindString, KindBytes:
		return 4 + int(v.n)
	default:
		return 0
	}
}

// Tuple is an ordered collection of values travelling on a stream.
// The zero Tuple is an empty tuple on DefaultStream.
type Tuple struct {
	// Stream identifies which logical stream the tuple belongs to.
	Stream StreamID
	// ID is the framework-assigned edge identifier of this tuple used by
	// guaranteed processing (each hop XORs the IDs of consumed and emitted
	// tuples). Zero means untracked.
	ID uint64
	// Root is the identifier of the spout tuple this tuple descends from;
	// acking completes when the XOR of all edge IDs under a root reaches
	// zero. Zero means untracked.
	Root uint64
	// Values are the tuple's fields.
	Values []Value
}

// New builds a Tuple on the default stream from the given values.
func New(values ...Value) Tuple { return Tuple{Stream: DefaultStream, Values: values} }

// OnStream builds a Tuple on the given stream.
func OnStream(s StreamID, values ...Value) Tuple { return Tuple{Stream: s, Values: values} }

// Len returns the number of fields.
func (t Tuple) Len() int { return len(t.Values) }

// Field returns field i, or the nil Value when out of range.
func (t Tuple) Field(i int) Value {
	if i < 0 || i >= len(t.Values) {
		return Nil()
	}
	return t.Values[i]
}

// Equal reports deep equality of two tuples (stream, ID and all fields).
func (t Tuple) Equal(o Tuple) bool {
	if t.Stream != o.Stream || t.ID != o.ID || t.Root != o.Root || len(t.Values) != len(o.Values) {
		return false
	}
	for i := range t.Values {
		if !t.Values[i].Equal(o.Values[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple for logs and debugging.
func (t Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tuple{stream=%d id=%d [", t.Stream, t.ID)
	for i, v := range t.Values {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	b.WriteString("]}")
	return b.String()
}

// ErrTruncated is returned when decoding runs out of bytes.
var ErrTruncated = errors.New("tuple: truncated encoding")

// ErrBadKind is returned when decoding meets an unknown value kind.
var ErrBadKind = errors.New("tuple: unknown value kind")

// ErrLengthMismatch is returned by DecodeBatch when a record's length
// prefix disagrees with the size of the tuple encoded inside it.
var ErrLengthMismatch = errors.New("tuple: batch record length mismatch")
