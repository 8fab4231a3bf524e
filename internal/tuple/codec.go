package tuple

import (
	"encoding/binary"
	"hash/fnv"
)

// Wire layout of an encoded tuple (little endian):
//
//	stream   uint16
//	id       uint64
//	root     uint64
//	nvalues  uint16
//	values   nvalues × (kind uint8, payload)
//
// String/bytes payloads are length-prefixed with uint32. The layout mirrors
// the "tuple length / stream ID / list of objects" format of Fig 5; the
// per-tuple length prefix itself is added by the packetizer (or by the
// baseline transport), not here, because the two transports frame tuples
// differently.

// EncodedSize returns the exact number of bytes Encode will produce.
func EncodedSize(t Tuple) int {
	n := 2 + 8 + 8 + 2
	for _, v := range t.Values {
		n += 1 + v.encodedSize()
	}
	return n
}

// AppendEncode appends the binary encoding of t to dst and returns the
// extended slice. It performs real byte-level work proportional to the
// payload size, which is what makes per-destination serialization in the
// baseline measurably expensive.
func AppendEncode(dst []byte, t Tuple) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(t.Stream))
	dst = binary.LittleEndian.AppendUint64(dst, t.ID)
	dst = binary.LittleEndian.AppendUint64(dst, t.Root)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(t.Values)))
	for _, v := range t.Values {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNil:
		case KindBool:
			if v.num != 0 {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case KindInt64, KindFloat64:
			dst = binary.LittleEndian.AppendUint64(dst, v.num)
		case KindString, KindBytes:
			dst = binary.LittleEndian.AppendUint32(dst, v.n)
			dst = append(dst, v.payload()...)
		}
	}
	return dst
}

// Encode returns the binary encoding of t in a fresh slice.
func Encode(t Tuple) []byte {
	return AppendEncode(make([]byte, 0, EncodedSize(t)), t)
}

// Decode parses one tuple from the front of buf and returns it together
// with the number of bytes consumed. It allocates the values slice and every
// string or bytes field on the heap. Production code decodes through an
// Arena; Decode stays as the reference the codec tests and fuzzers compare
// DecodeInto and DecodeBatch against.
func Decode(buf []byte) (Tuple, int, error) {
	if len(buf) < 20 {
		return Tuple{}, 0, ErrTruncated
	}
	t := Tuple{
		Stream: StreamID(binary.LittleEndian.Uint16(buf)),
		ID:     binary.LittleEndian.Uint64(buf[2:]),
		Root:   binary.LittleEndian.Uint64(buf[10:]),
	}
	n := int(binary.LittleEndian.Uint16(buf[18:]))
	off := 20
	if n > 0 {
		t.Values = make([]Value, 0, n)
	}
	for i := 0; i < n; i++ {
		if off >= len(buf) {
			return Tuple{}, 0, ErrTruncated
		}
		kind := Kind(buf[off])
		off++
		switch kind {
		case KindNil:
			t.Values = append(t.Values, Nil())
		case KindBool:
			if off+1 > len(buf) {
				return Tuple{}, 0, ErrTruncated
			}
			t.Values = append(t.Values, Bool(buf[off] != 0))
			off++
		case KindInt64:
			if off+8 > len(buf) {
				return Tuple{}, 0, ErrTruncated
			}
			t.Values = append(t.Values, Int(int64(binary.LittleEndian.Uint64(buf[off:]))))
			off += 8
		case KindFloat64:
			if off+8 > len(buf) {
				return Tuple{}, 0, ErrTruncated
			}
			t.Values = append(t.Values, Value{kind: KindFloat64, num: binary.LittleEndian.Uint64(buf[off:])})
			off += 8
		case KindString:
			s, m, err := decodeBlob(buf[off:])
			if err != nil {
				return Tuple{}, 0, err
			}
			t.Values = append(t.Values, String(string(s)))
			off += m
		case KindBytes:
			s, m, err := decodeBlob(buf[off:])
			if err != nil {
				return Tuple{}, 0, err
			}
			b := make([]byte, len(s))
			copy(b, s)
			t.Values = append(t.Values, Bytes(b))
			off += m
		default:
			return Tuple{}, 0, ErrBadKind
		}
	}
	return t, off, nil
}

// DecodeInto parses one tuple from the front of buf like Decode, but draws
// the tuple's Values slice and string/bytes storage from the caller's arena
// instead of the heap. Payload bytes are copied out of buf exactly once, so
// buf may be recycled as soon as the call returns; the decoded tuple itself
// is safe to retain indefinitely (see Arena's ownership-transfer contract).
// This is the receive-path fast decode: ~0 allocations per tuple amortized.
func DecodeInto(buf []byte, a *Arena) (Tuple, int, error) {
	if len(buf) < 20 {
		return Tuple{}, 0, ErrTruncated
	}
	t := Tuple{
		Stream: StreamID(binary.LittleEndian.Uint16(buf)),
		ID:     binary.LittleEndian.Uint64(buf[2:]),
		Root:   binary.LittleEndian.Uint64(buf[10:]),
	}
	n := int(binary.LittleEndian.Uint16(buf[18:]))
	off := 20
	// Each value needs at least its kind byte, so the buffer bounds how many
	// can decode before the loop runs out of bytes: a corrupt count cannot
	// reserve 64 Ki values against a 30-byte frame, and i stays below
	// len(vals) for as long as off is inside buf.
	var vals []Value
	if n > 0 {
		vals = a.grabValues(min(n, len(buf)-off))
	}
	for i := 0; i < n; i++ {
		if off >= len(buf) {
			return Tuple{}, 0, ErrTruncated
		}
		kind := Kind(buf[off])
		off++
		switch kind {
		case KindNil:
			vals[i] = Value{}
		case KindBool:
			if off+1 > len(buf) {
				return Tuple{}, 0, ErrTruncated
			}
			vals[i] = Bool(buf[off] != 0)
			off++
		case KindInt64, KindFloat64:
			if off+8 > len(buf) {
				return Tuple{}, 0, ErrTruncated
			}
			vals[i] = Value{kind: kind, num: binary.LittleEndian.Uint64(buf[off:])}
			off += 8
		case KindString, KindBytes:
			s, m, err := decodeBlob(buf[off:])
			if err != nil {
				return Tuple{}, 0, err
			}
			vals[i] = Value{kind: kind, n: uint32(len(s)), ptr: a.intern(s)}
			off += m
		default:
			return Tuple{}, 0, ErrBadKind
		}
	}
	t.Values = vals
	return t, off, nil
}

// DecodeBatch parses a run of uint32-length-prefixed encoded tuples — the
// payload layout of a multi-tuple data frame — appending the decoded tuples
// to dst (reusing its capacity) and drawing all per-tuple storage from the
// arena. On error the tuples decoded before the corrupt record are returned
// alongside it. An empty run decodes to zero tuples.
func DecodeBatch(run []byte, dst []Tuple, a *Arena) ([]Tuple, error) {
	for len(run) > 0 {
		if len(run) < 4 {
			return dst, ErrTruncated
		}
		n := int(binary.LittleEndian.Uint32(run))
		run = run[4:]
		if n > len(run) {
			return dst, ErrTruncated
		}
		t, used, err := DecodeInto(run[:n], a)
		if err != nil {
			return dst, err
		}
		if used != n {
			return dst, ErrLengthMismatch
		}
		dst = append(dst, t)
		run = run[n:]
	}
	return dst, nil
}

func decodeBlob(buf []byte) ([]byte, int, error) {
	if len(buf) < 4 {
		return nil, 0, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) < 4+n {
		return nil, 0, ErrTruncated
	}
	return buf[4 : 4+n], 4 + n, nil
}

// HashFields computes a stable non-cryptographic hash over the selected
// field indices, used by key-based (fields) routing. Out-of-range indices
// hash as the nil value, matching the behaviour of hashing a missing key.
func HashFields(t Tuple, fields []int) uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	for _, idx := range fields {
		v := t.Field(idx)
		scratch[0] = byte(v.kind)
		_, _ = h.Write(scratch[:1])
		switch v.kind {
		case KindString, KindBytes:
			_, _ = h.Write([]byte(v.payload()))
		default:
			binary.LittleEndian.PutUint64(scratch[:], v.num)
			_, _ = h.Write(scratch[:])
		}
	}
	return h.Sum64()
}
