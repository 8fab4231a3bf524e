// Package storm implements the baseline stream transport Typhoon is
// compared against (§6): Storm-style worker-level TCP connections with
// application-level routing.
//
// The decisive cost it reproduces is per-destination serialization: a tuple
// sent to k next-hop workers is serialized k times, once per connection,
// because each copy carries distinct per-destination metadata (§1, [42]).
// One-to-many routing therefore degrades with fan-out (Fig 9), and tapping
// a stream for debugging costs extra serializations (Fig 12, Table 5).
package storm

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// errClosed is returned after Close.
var errClosed = errors.New("storm: transport closed")

// Network is the worker address registry of a baseline cluster: the role
// the scheduler's "transport channel information (IP address and TCP port)"
// plays in §2.
type Network struct {
	mu    sync.Mutex
	addrs map[topology.WorkerID]string
}

// NewNetwork builds an empty registry.
func NewNetwork() *Network {
	return &Network{addrs: make(map[topology.WorkerID]string)}
}

func (n *Network) register(id topology.WorkerID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs[id] = addr
}

func (n *Network) unregister(id topology.WorkerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.addrs, id)
}

// Lookup resolves a worker's TCP address.
func (n *Network) Lookup(id topology.WorkerID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.addrs[id]
	return a, ok
}

// Frame layout: length(u32) src(u32) dst(u32) tuple-bytes. The 12-byte
// header is the per-destination metadata that forces one serialization per
// destination.
const frameHeader = 12

// maxFrame bounds one tuple frame on the wire.
const maxFrame = 16 << 20

// TCPTransport is a worker.Transport over per-destination TCP connections.
type TCPTransport struct {
	self topology.WorkerID
	net  *Network
	ln   net.Listener

	conns map[topology.WorkerID]*outConn

	inMu    sync.Mutex
	inConns map[net.Conn]struct{}

	inbox  chan tuple.Tuple
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	tuplesSent     atomic.Uint64
	serializations atomic.Uint64
	dropped        atomic.Uint64
	tuplesReceived atomic.Uint64
}

type outConn struct {
	c  net.Conn
	bw *bufio.Writer
}

// Listen attaches a transport for worker id to the registry, binding a TCP
// listener on the loopback interface.
func Listen(id topology.WorkerID, network *Network) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("storm: listen: %w", err)
	}
	t := &TCPTransport{
		self:    id,
		net:     network,
		ln:      ln,
		conns:   make(map[topology.WorkerID]*outConn),
		inConns: make(map[net.Conn]struct{}),
		inbox:   make(chan tuple.Tuple, 8192),
		closed:  make(chan struct{}),
	}
	network.register(id, ln.Addr().String())
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Send implements worker.Transport. Broadcast falls back to one
// serialization and one TCP write per destination — the baseline behaviour
// the paper measures.
func (t *TCPTransport) Send(d worker.Destination, in tuple.Tuple) error {
	for _, id := range d.Workers {
		// Fresh serialization for every destination: the frame embeds
		// destination-specific metadata, as in Storm's transport layer.
		buf := make([]byte, frameHeader, frameHeader+tuple.EncodedSize(in))
		binary.BigEndian.PutUint32(buf[4:8], uint32(t.self))
		binary.BigEndian.PutUint32(buf[8:12], uint32(id))
		buf = tuple.AppendEncode(buf, in)
		binary.BigEndian.PutUint32(buf[0:4], uint32(len(buf)-4))
		t.serializations.Add(1)

		oc := t.connTo(id)
		if oc == nil {
			t.dropped.Add(1)
			continue
		}
		if _, err := oc.bw.Write(buf); err != nil {
			t.dropConn(id)
			t.dropped.Add(1)
			continue
		}
		t.tuplesSent.Add(1)
	}
	return nil
}

// SendControl implements worker.Transport: the baseline has no SDN
// controller path, so control replies go nowhere.
func (t *TCPTransport) SendControl(tuple.Tuple) error { return nil }

// Flush implements worker.Transport.
func (t *TCPTransport) Flush() error {
	for id, oc := range t.conns {
		if err := oc.bw.Flush(); err != nil {
			t.dropConn(id)
		}
	}
	return nil
}

// Recv implements worker.Transport.
func (t *TCPTransport) Recv(max int, wait time.Duration) ([]tuple.Tuple, error) {
	if max <= 0 {
		max = 64
	}
	var out []tuple.Tuple
	select {
	case tp := <-t.inbox:
		out = append(out, tp)
	case <-t.closed:
		return nil, errClosed
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
			return nil, errClosed
		case <-timer.C:
			return nil, nil
		}
	}
	for len(out) < max {
		select {
		case tp := <-t.inbox:
			out = append(out, tp)
		default:
			t.tuplesReceived.Add(uint64(len(out)))
			return out, nil
		}
	}
	t.tuplesReceived.Add(uint64(len(out)))
	return out, nil
}

// SetBatchSize implements worker.Transport; the baseline's Netty-style
// buffered writers flush on Flush, so the BATCH_SIZE knob is a no-op.
func (t *TCPTransport) SetBatchSize(int) {}

// InQueueLen implements worker.Transport.
func (t *TCPTransport) InQueueLen() int { return len(t.inbox) }

// Stats implements worker.Transport.
func (t *TCPTransport) Stats() worker.TransportStats {
	return worker.TransportStats{
		TuplesSent:     t.tuplesSent.Load(),
		Serializations: t.serializations.Load(),
		Dropped:        t.dropped.Load(),
		TuplesReceived: t.tuplesReceived.Load(),
	}
}

// Close implements worker.Transport.
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		t.net.unregister(t.self)
		_ = t.ln.Close()
		for id := range t.conns {
			t.dropConn(id)
		}
		t.inMu.Lock()
		for c := range t.inConns {
			_ = c.Close()
		}
		t.inMu.Unlock()
	})
	t.wg.Wait()
	return nil
}

func (t *TCPTransport) connTo(id topology.WorkerID) *outConn {
	if oc, ok := t.conns[id]; ok {
		return oc
	}
	addr, ok := t.net.Lookup(id)
	if !ok {
		return nil
	}
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil
	}
	oc := &outConn{c: c, bw: bufio.NewWriterSize(c, 64<<10)}
	t.conns[id] = oc
	return oc
}

func (t *TCPTransport) dropConn(id topology.WorkerID) {
	if oc, ok := t.conns[id]; ok {
		_ = oc.c.Close()
		delete(t.conns, id)
	}
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.inMu.Lock()
		select {
		case <-t.closed:
			t.inMu.Unlock()
			_ = c.Close()
			return
		default:
		}
		t.inConns[c] = struct{}{}
		t.inMu.Unlock()
		t.wg.Add(1)
		go t.readLoop(c)
	}
}

func (t *TCPTransport) readLoop(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.inMu.Lock()
		delete(t.inConns, c)
		t.inMu.Unlock()
		_ = c.Close()
	}()
	br := bufio.NewReaderSize(c, 64<<10)
	var hdr [4]byte
	// One arena per connection: decoded tuples take ownership of their
	// regions, so the reader itself stays near allocation-free.
	var arena tuple.Arena
	for {
		select {
		case <-t.closed:
			return
		default:
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n < frameHeader-4 || n > maxFrame {
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		// Deserialization happens here, once per received copy.
		tp, _, err := tuple.DecodeInto(body[8:], &arena)
		if err != nil {
			t.dropped.Add(1)
			continue
		}
		select {
		case t.inbox <- tp:
		case <-t.closed:
			return
		default:
			t.dropped.Add(1)
		}
	}
}

var _ worker.Transport = (*TCPTransport)(nil)
