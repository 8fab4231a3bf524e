package worker

import (
	"errors"
	"time"

	"typhoon/internal/tuple"
)

// errTransportClosed is returned by Recv once a transport is closed.
var errTransportClosed = errors.New("worker: transport closed")

// Transport is the pluggable tuple transport beneath the framework layer —
// the equivalent of Storm's IContext/IConnection extension point the
// prototype plugs its DPDK library into (§5). The Typhoon SDN data plane
// (SDNTransport) and the Storm-style TCP baseline both implement it, which
// is what makes the paper's head-to-head comparisons possible.
//
// Transports are used by a single worker goroutine; implementations need
// not be safe for concurrent Send calls.
type Transport interface {
	// Send delivers one tuple to the destination workers. A broadcast
	// destination asks for network-level replication where available;
	// transports without it fall back to per-destination sends. Send keeps
	// nothing of t.Values once it returns: a transport that holds a tuple
	// past the call (staged, queued or handed to a receiver) holds a copy,
	// so the caller may reuse the slice (the worker's acker batches do).
	Send(d Destination, t tuple.Tuple) error
	// SendControl sends a tuple to the SDN controller (METRIC_RESP) and
	// flushes: a control reply is never left staged. On transports without
	// a controller path it is a no-op.
	SendControl(t tuple.Tuple) error
	// Recv returns the next batch of incoming tuples, waiting up to wait
	// for the first. The returned slice may be a view into a transport-
	// owned buffer valid only until the next Recv call; the tuples
	// themselves own their storage and may be retained. It returns an
	// error only when the transport is closed.
	Recv(max int, wait time.Duration) ([]tuple.Tuple, error)
	// Flush pushes any batched tuples to the wire.
	Flush() error
	// SetBatchSize sets the egress batch threshold (a BATCH_SIZE tuple's
	// Size, which the worker decodes); n <= 0 keeps the current one, and
	// transports without a threshold ignore it.
	SetBatchSize(n int)
	// InQueueLen reports tuples/frames queued toward this worker, the
	// queue-status metric the auto-scaler polls.
	InQueueLen() int
	// Stats reports transport counters.
	Stats() TransportStats
	// Close releases the transport; pending Recv calls return an error.
	Close() error
}

// TransportStats counts transport-level activity.
type TransportStats struct {
	// TuplesSent counts application-visible sends (one per destination
	// for unicast, one per broadcast).
	TuplesSent uint64
	// Serializations counts tuple serializations performed; the Fig 9
	// comparison is the ratio of this to TuplesSent under fan-out.
	Serializations uint64
	// FramesSent counts data-plane frames (SDN transport only).
	FramesSent uint64
	// Dropped counts tuples or frames lost to full queues.
	Dropped uint64
	// TuplesReceived counts tuples delivered to the worker.
	TuplesReceived uint64
}
