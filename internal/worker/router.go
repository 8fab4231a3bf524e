package worker

import (
	"sync/atomic"

	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// Router implements the framework layer's routing policies (Listing 1).
// Its state — the next-hop sets and policy descriptors per out-edge — is
// exactly what ROUTING control tuples replace at runtime: Update builds a
// new table and swaps it in behind an atomic pointer, so the data path
// takes no mutex and a tuple is routed by one whole table, never a mix.
// Update and Routes may be called from any goroutine; routing itself
// (Route, and the worker's routeInto) belongs to one goroutine at a time,
// the worker's, because the shuffle cursors advance unsynchronised.
type Router struct {
	table atomic.Pointer[[]routeState]
}

// routeState is one out-edge of a table. Everything but the cursor is
// immutable once the table is published.
type routeState struct {
	edge     topology.EdgeSpec
	nextHops []topology.WorkerID
	counter  uint64 // round-robin cursor (policy-specific state)
}

// Destination is one routing decision for a tuple.
type Destination struct {
	// Workers are the target worker IDs.
	Workers []topology.WorkerID
	// Broadcast requests network-level replication (the destination
	// address becomes the broadcast address and the switch fans out).
	Broadcast bool
	// SDNBalanced requests switch-level destination selection: the worker
	// stamps the broadcast address and a select group rewrites it.
	SDNBalanced bool
}

// NewRouter builds a router from an initial routing table.
func NewRouter(routes []topology.Route) *Router {
	r := &Router{}
	r.Update(routes)
	return r
}

// Update atomically replaces the routing table (ROUTING control tuple).
// Round-robin counters reset, which is harmless for shuffle semantics.
func (r *Router) Update(routes []topology.Route) {
	states := make([]routeState, 0, len(routes))
	for _, rt := range routes {
		states = append(states, routeState{
			edge:     rt.Edge,
			nextHops: append([]topology.WorkerID(nil), rt.NextHops...),
		})
	}
	r.table.Store(&states)
}

// Routes returns a copy of the current routing table.
func (r *Router) Routes() []topology.Route {
	states := *r.table.Load()
	out := make([]topology.Route, 0, len(states))
	for _, s := range states {
		out = append(out, topology.Route{
			Edge:     s.edge,
			NextHops: append([]topology.WorkerID(nil), s.nextHops...),
		})
	}
	return out
}

// Route computes the destinations of a tuple: one Destination per out-edge
// subscribed to the tuple's stream.
func (r *Router) Route(t tuple.Tuple) []Destination { return r.routeInto(nil, t) }

// routeInto is Route appending to dst, so a caller that owns a scratch
// slice routes without allocating. The Workers of every Destination alias
// the table's next-hop sets, which are never written after publication.
func (r *Router) routeInto(dst []Destination, t tuple.Tuple) []Destination {
	states := *r.table.Load()
	for i := range states {
		s := &states[i]
		if s.edge.Stream != t.Stream {
			continue
		}
		n := len(s.nextHops)
		if n == 0 {
			continue
		}
		switch s.edge.Policy {
		case topology.Shuffle:
			idx := s.counter % uint64(n)
			s.counter++
			dst = append(dst, Destination{Workers: s.nextHops[idx : idx+1]})
		case topology.Fields:
			// Two-level key routing (§3.5): hash → partition → owner via
			// rendezvous hashing, so rescaling the destination node moves
			// only the partitions whose owner changed and the controller's
			// updater app can compute exactly which state entries migrate.
			// A lone next hop owns every partition, so its key is not hashed
			// (one acker: every INIT and ACK record).
			idx := 0
			if n > 1 {
				idx = OwnerIndex(PartitionOf(tuple.HashFields(t, s.edge.HashFields)), n)
			}
			dst = append(dst, Destination{Workers: s.nextHops[idx : idx+1]})
		case topology.Global:
			dst = append(dst, Destination{Workers: s.nextHops[:1]})
		case topology.All:
			dst = append(dst, Destination{Workers: s.nextHops, Broadcast: true})
		case topology.SDNBalanced:
			dst = append(dst, Destination{Workers: s.nextHops, SDNBalanced: true})
		case topology.Direct:
			want := topology.WorkerID(t.Field(0).AsInt())
			for j, h := range s.nextHops {
				if h == want {
					dst = append(dst, Destination{Workers: s.nextHops[j : j+1]})
					break
				}
			}
		}
	}
	return dst
}
