package tuple

import "unsafe"

// Arena is a bump allocator backing the zero-alloc decode path
// (DecodeInto/DecodeBatch). Decoding a tuple needs two kinds of memory —
// a []Value slice for its fields and byte storage for string/bytes
// payloads — and the stock Decode pays one heap allocation for each.
// The arena hands both out of large pre-allocated blocks instead, so a
// receive loop decoding millions of tuples amortizes its allocations
// down to one block every few thousand tuples. A Value is 24 bytes with one
// pointer word (see its type comment), so a field costs 24 bytes of zeroed,
// GC-scanned slab plus its payload bytes, copied once.
//
// Ownership of every handed-out region transfers to the decoded tuple:
// the arena never recycles or rewrites memory it has given away, it only
// drops its reference and lets the GC reclaim the block when the tuples
// referencing it die. That makes arena-decoded tuples indistinguishable
// from Decode's — safe to retain forever, use as map keys, or hand to
// other goroutines — which matters because downstream components do all
// three (a keyed bolt's state map keeps field strings alive
// indefinitely). The cost is proportional only to live tuples, exactly
// like individual allocations, minus the per-tuple overhead.
//
// An Arena is not safe for concurrent use; each receive loop owns one.
// The zero value is ready to use.
type Arena struct {
	bytes []byte
	vals  []Value
}

// Block sizing: chunks big enough to amortize allocation over thousands
// of small tuples, small enough that a dying batch doesn't pin megabytes.
const (
	arenaByteChunk = 16 << 10
	arenaValueSlab = 1 << 10
)

// grabBytes returns a fresh, zeroed, exactly-n-byte slice carved from the
// arena. The caller owns it; the arena will never touch those bytes again.
func (a *Arena) grabBytes(n int) []byte {
	if n > len(a.bytes) {
		a.bytes = make([]byte, max(n, arenaByteChunk))
	}
	b := a.bytes[:n:n]
	a.bytes = a.bytes[n:]
	return b
}

// grabValues returns a zeroed n-value slice carved from the arena. The
// full-slice expression caps it so an append can never step on a later grab.
func (a *Arena) grabValues(n int) []Value {
	if n > len(a.vals) {
		a.vals = make([]Value, max(n, arenaValueSlab))
	}
	v := a.vals[:n:n]
	a.vals = a.vals[n:]
	return v
}

// intern copies src into arena storage and returns the address of the copy
// (nil for an empty src) for a Value to hold as its one pointer word. The
// bytes are written exactly once, by the copy here, and the arena has
// relinquished them, so a string viewing them is as immutable as any other
// — the strings.Builder technique.
func (a *Arena) intern(src []byte) unsafe.Pointer {
	if len(src) == 0 {
		return nil
	}
	b := a.grabBytes(len(src))
	copy(b, src)
	return unsafe.Pointer(unsafe.SliceData(b))
}
