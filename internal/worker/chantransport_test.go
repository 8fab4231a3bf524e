package worker

import (
	"slices"
	"sync"
	"time"

	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// ChanTransport is an in-process Transport connecting workers through Go
// channels, for this package's tests.
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

var _ Transport = (*ChanTransport)(nil)

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

// Send implements Transport. The receivers get the tuple by reference, so
// its values are copied first: the sender may reuse in.Values on return.
func (t *ChanTransport) Send(d Destination, in tuple.Tuple) error {
	in.Values = slices.Clone(in.Values)
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

// SetBatchSize implements Transport: the channel transport has no batch
// threshold.
func (t *ChanTransport) SetBatchSize(int) {}

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
