// Package ack implements Storm-style guaranteed processing (§6.1 "tuple
// forwarding with reliability guarantee"): special acker workers track each
// source tuple's processing tree by XOR-ing edge IDs, and notify the
// originating source worker when the XOR reaches zero, i.e. every tuple in
// the tree was processed at least once. Sources replay trees that do not
// complete in time.
//
// Typhoon supports the same mechanism by installing SDN flow rules for the
// acker workers; the worker framework layer emits the INIT/ACK records in
// both systems.
package ack

import (
	"slices"
	"time"

	"typhoon/internal/clock"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// LogicName is the registered computation-logic name of the acker;
// the streaming manager wires an acker node into topologies that request
// guaranteed processing.
const LogicName = "typhoon/acker"

// NodeName is the reserved logical node name for ackers.
const NodeName = "__acker"

func init() {
	worker.RegisterLogic(LogicName, func() worker.Component { return NewAcker() })
}

// Acker tracks tuple trees. An ack tuple carries k ≥ 1 records of
// [kind, root, xor, src], four fields each: kind 0 initialises a tree from a
// source worker, kind 1 folds a processing step into it. The trees one ack
// tuple completes leave as one COMPLETE tuple per source worker,
// [src, root…], which the Direct edge routes by its first field.
type Acker struct {
	pending map[uint64]entry
	// MaxAge bounds how long an incomplete tree is tracked; sources
	// replay well before this.
	MaxAge time.Duration

	executed uint64
	// done holds the COMPLETE tuples of the Execute in progress, one per
	// source worker. Their slices are reused from one Execute to the next:
	// the worker's EmitOn keeps nothing of its values, because Transport.Send
	// does not.
	done [][]tuple.Value
}

type entry struct {
	xor     uint64
	src     topology.WorkerID
	init    bool
	started int64 // clock.CoarseUnixNano when the first record arrived
}

// NewAcker builds an empty acker.
func NewAcker() *Acker {
	return &Acker{pending: make(map[uint64]entry), MaxAge: 60 * time.Second}
}

// Open implements worker.Component.
func (a *Acker) Open(*worker.Context) error { return nil }

// Close implements worker.Component.
func (a *Acker) Close(*worker.Context) error { return nil }

// Pending reports the number of incomplete trees (for tests).
func (a *Acker) Pending() int { return len(a.pending) }

// Execute implements worker.Bolt: one pass over the tuple's whole records;
// a partial record at the end is ignored.
func (a *Acker) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream != tuple.AckStream {
		return nil
	}
	now := clock.CoarseUnixNano()
	for rec := in.Values; len(rec) >= 4; rec = rec[4:] {
		root := uint64(rec[1].AsInt())
		e, ok := a.pending[root]
		if !ok {
			e.started = now
		}
		e.xor ^= uint64(rec[2].AsInt())
		if rec[0].AsInt() == 0 {
			e.init = true
			e.src = topology.WorkerID(rec[3].AsInt())
		}
		if e.init && e.xor == 0 {
			delete(a.pending, root)
			a.complete(e.src, root)
		} else {
			a.pending[root] = e
		}
		a.executed++
		if a.executed%16384 == 0 {
			a.sweep(now)
		}
	}
	for _, vals := range a.done {
		ctx.EmitOn(tuple.CompleteStream, vals...)
	}
	a.done = a.done[:0]
	return nil
}

// complete adds root to the COMPLETE tuple bound for src.
func (a *Acker) complete(src topology.WorkerID, root uint64) {
	for i, vals := range a.done {
		if topology.WorkerID(vals[0].AsInt()) == src {
			a.done[i] = append(vals, tuple.Int(int64(root)))
			return
		}
	}
	n := len(a.done)
	a.done = slices.Grow(a.done, 1)[:n+1] // re-exposes a slice an earlier Execute left
	a.done[n] = append(a.done[n][:0], tuple.Int(int64(src)), tuple.Int(int64(root)))
}

func (a *Acker) sweep(now int64) {
	for root, e := range a.pending {
		if now-e.started > int64(a.MaxAge) {
			delete(a.pending, root)
		}
	}
}
