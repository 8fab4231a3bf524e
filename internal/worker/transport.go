package worker

import (
	"errors"
	"sync"
	"time"

	"typhoon/internal/topology"
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
	// transports without it fall back to per-destination sends.
	Send(d Destination, t tuple.Tuple) error
	// SendControl sends a tuple to the SDN controller (METRIC_RESP). On
	// transports without a controller path it is a no-op.
	SendControl(t tuple.Tuple) error
	// Recv returns the next batch of incoming tuples, waiting up to wait
	// for the first. The returned slice may be a view into a transport-
	// owned buffer valid only until the next Recv call; the tuples
	// themselves own their storage and may be retained. It returns an
	// error only when the transport is closed.
	Recv(max int, wait time.Duration) ([]tuple.Tuple, error)
	// Flush pushes any batched tuples to the wire.
	Flush() error
	// Reconfigure applies a transport-level control tuple (BATCH_SIZE
	// adjusts the egress batch threshold; future kinds slot in without
	// widening this interface). Transports ignore kinds they do not
	// understand and return nil; an error means the tuple was understood
	// but malformed or inapplicable.
	Reconfigure(t tuple.Tuple) error
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

// ChanTransport is an in-process Transport connecting workers through Go
// channels. It exists for unit tests and as the simplest reference
// implementation of the interface contract.
type ChanTransport struct {
	self  topology.WorkerID
	inbox chan tuple.Tuple
	net   *ChanNetwork

	mu     sync.Mutex
	ctrl   chan tuple.Tuple
	closed chan struct{}
	once   sync.Once

	stats TransportStats
}

// ChanNetwork wires ChanTransports together.
type ChanNetwork struct {
	mu    sync.Mutex
	peers map[topology.WorkerID]*ChanTransport
	// Control receives worker-to-controller tuples.
	Control chan tuple.Tuple
}

// NewChanNetwork builds an empty channel network.
func NewChanNetwork() *ChanNetwork {
	return &ChanNetwork{
		peers:   make(map[topology.WorkerID]*ChanTransport),
		Control: make(chan tuple.Tuple, 1024),
	}
}

// Attach creates a transport for the given worker ID.
func (n *ChanNetwork) Attach(id topology.WorkerID) *ChanTransport {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := &ChanTransport{
		self:   id,
		inbox:  make(chan tuple.Tuple, 4096),
		net:    n,
		ctrl:   n.Control,
		closed: make(chan struct{}),
	}
	n.peers[id] = t
	return t
}

func (n *ChanNetwork) lookup(id topology.WorkerID) *ChanTransport {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.peers[id]
}

// Send implements Transport.
func (t *ChanTransport) Send(d Destination, in tuple.Tuple) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Serializations++ // channel transport "serializes" once
	for _, id := range d.Workers {
		peer := t.net.lookup(id)
		if peer == nil {
			t.stats.Dropped++
			continue
		}
		select {
		case peer.inbox <- in:
			t.stats.TuplesSent++
		default:
			t.stats.Dropped++
		}
	}
	return nil
}

// SendControl implements Transport.
func (t *ChanTransport) SendControl(in tuple.Tuple) error {
	select {
	case t.ctrl <- in:
	default:
	}
	return nil
}

// Recv implements Transport.
func (t *ChanTransport) Recv(max int, wait time.Duration) ([]tuple.Tuple, error) {
	if max <= 0 {
		max = 64
	}
	var out []tuple.Tuple
	select {
	case tp := <-t.inbox:
		out = append(out, tp)
	case <-t.closed:
		return nil, errTransportClosed
	default:
		if wait <= 0 {
			return nil, nil
		}
		// The timer is armed only once the inbox has come up empty.
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case tp := <-t.inbox:
			out = append(out, tp)
		case <-t.closed:
			return nil, errTransportClosed
		case <-timer.C:
			return nil, nil
		}
	}
	for len(out) < max {
		select {
		case tp := <-t.inbox:
			out = append(out, tp)
		default:
			t.mu.Lock()
			t.stats.TuplesReceived += uint64(len(out))
			t.mu.Unlock()
			return out, nil
		}
	}
	t.mu.Lock()
	t.stats.TuplesReceived += uint64(len(out))
	t.mu.Unlock()
	return out, nil
}

// Flush implements Transport (no batching to flush).
func (t *ChanTransport) Flush() error { return nil }

// Reconfigure implements Transport: the channel transport has no knobs,
// so every control tuple is ignored.
func (t *ChanTransport) Reconfigure(tuple.Tuple) error { return nil }

// InQueueLen implements Transport.
func (t *ChanTransport) InQueueLen() int { return len(t.inbox) }

// Stats implements Transport.
func (t *ChanTransport) Stats() TransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	t.once.Do(func() { close(t.closed) })
	return nil
}
