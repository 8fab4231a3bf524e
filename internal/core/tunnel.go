package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"typhoon/internal/chaos"
	"typhoon/internal/packet"
	"typhoon/internal/switchfabric"
)

// tunnelFabric interconnects the hosts' software switches with host-level
// TCP tunnels (§3.3.1): frames leaving a switch through its tunnel port are
// encapsulated with their destination host, carried over a TCP connection,
// and injected into the remote switch's tunnel port.
type tunnelFabric struct {
	mu    sync.Mutex
	addrs map[string]string
}

func newTunnelFabric() *tunnelFabric {
	return &tunnelFabric{addrs: make(map[string]string)}
}

func (f *tunnelFabric) register(host, addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.addrs[host] = addr
}

func (f *tunnelFabric) lookup(host string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	a, ok := f.addrs[host]
	return a, ok
}

// tunnelEndpoint is one host's end of the tunnel fabric.
type tunnelEndpoint struct {
	host   string
	port   *switchfabric.Port
	fabric *tunnelFabric
	// netem is the chaos impairment table consulted per egress frame
	// (nil-safe: a nil table is a perfect network).
	netem *chaos.Netem
	ln    net.Listener

	mu   sync.Mutex
	outs map[string]*tunnelConn
	// redial tracks per-peer dial backoff so an unreachable host does not
	// cost a full dial timeout on every frame batch.
	redial map[string]*redialState
	incon  map[net.Conn]struct{}

	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

type tunnelConn struct {
	c  net.Conn
	bw *bufio.Writer
}

// redialState spaces reconnection attempts toward one unreachable peer.
type redialState struct {
	fails int
	next  time.Time
}

// Tunnel redial backoff bounds: first retry after tunnelRedialBase,
// doubling per consecutive failure up to tunnelRedialMax.
const (
	tunnelRedialBase = 50 * time.Millisecond
	tunnelRedialMax  = 2 * time.Second
)

// maxTunnelFrame bounds one tunneled frame.
const maxTunnelFrame = 1 << 20

// startTunnel binds a host's tunnel endpoint and starts its pumps. netem,
// when non-nil, impairs egress frames (chaos link faults).
func startTunnel(host string, port *switchfabric.Port, fabric *tunnelFabric, netem *chaos.Netem) (*tunnelEndpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: tunnel listen: %w", err)
	}
	t := &tunnelEndpoint{
		host:   host,
		port:   port,
		fabric: fabric,
		netem:  netem,
		ln:     ln,
		outs:   make(map[string]*tunnelConn),
		redial: make(map[string]*redialState),
		incon:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
	fabric.register(host, ln.Addr().String())
	t.wg.Add(2)
	go t.acceptLoop()
	go t.egressLoop()
	return t, nil
}

func (t *tunnelEndpoint) close() {
	t.once.Do(func() {
		close(t.closed)
		_ = t.ln.Close()
		t.mu.Lock()
		for _, oc := range t.outs {
			_ = oc.c.Close()
		}
		for c := range t.incon {
			_ = c.Close()
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
}

// egressLoop moves frames from the switch's tunnel port onto TCP. Every
// frame it dequeues is an encapsulation the switch built in a pooled buffer
// and handed over for good, so once the inner frame is in the connection's
// write buffer — or has been dropped — the buffer re-enters the pool.
func (t *tunnelEndpoint) egressLoop() {
	defer t.wg.Done()
	var batch [][]byte
	// host is the destination of the last frame: traffic runs toward one
	// peer at a time, so its name is allocated when it changes, not per frame.
	var host string
	touched := map[string]*tunnelConn{}
	for {
		var err error
		batch, err = t.port.ReadBatch(batch[:0], 64, 500*time.Millisecond)
		if err != nil {
			return
		}
		for _, raw := range batch {
			to, inner, derr := switchfabric.DecapTunnel(raw)
			if derr == nil && len(to) > 0 {
				if string(to) != host {
					host = string(to)
				}
				if !t.forward(host, inner, touched) {
					return
				}
			}
			packet.PutFrameBuf(raw)
		}
		for host, oc := range touched {
			if oc.bw.Flush() != nil {
				t.dropConn(host)
			}
		}
		clear(touched)
	}
}

// forward writes one inner frame toward host, recording the connection in
// touched for the batch's flush. A frame lost to chaos impairment, a missing
// connection or a write error is dropped; forward reports false only when the
// endpoint closed while the frame waited out an injected delay.
func (t *tunnelEndpoint) forward(host string, inner []byte, touched map[string]*tunnelConn) bool {
	// Chaos link impairment: drop or delay before the frame reaches TCP,
	// exactly where a lossy physical link would.
	if delay, drop := t.netem.Impair(t.host, host); drop {
		return true
	} else if delay > 0 {
		select {
		case <-t.closed:
			return false
		case <-time.After(delay):
		}
	}
	oc := t.connTo(host)
	if oc == nil {
		return true
	}
	if writeTunnelFrame(oc.bw, inner) != nil {
		t.dropConn(host)
		return true
	}
	touched[host] = oc
	return true
}

// writeTunnelFrame writes one frame in the tunnel's stream framing: a 4-byte
// big-endian length, then the frame.
func writeTunnelFrame(w io.Writer, frame []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// readTunnelFrame reads the next frame of the tunnel's stream framing into a
// pooled buffer (a frame longer than a pooled buffer gets one of its own).
// A length of zero or above maxTunnelFrame is refused before anything is
// allocated for it.
func readTunnelFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n <= 0 || n > maxTunnelFrame {
		return nil, fmt.Errorf("core: tunnel frame of %d bytes", n)
	}
	frame := packet.GetFrameBuf()
	if n > cap(frame) {
		packet.PutFrameBuf(frame)
		frame = make([]byte, n)
	}
	frame = frame[:n]
	if _, err := io.ReadFull(r, frame); err != nil {
		packet.PutFrameBuf(frame)
		return nil, err
	}
	return frame, nil
}

func (t *tunnelEndpoint) connTo(host string) *tunnelConn {
	t.mu.Lock()
	if oc, ok := t.outs[host]; ok {
		t.mu.Unlock()
		return oc
	}
	// Redial backoff: while a peer is unreachable, frames toward it are
	// dropped cheaply instead of stalling the egress pump for a full dial
	// timeout per batch.
	if rs := t.redial[host]; rs != nil && time.Now().Before(rs.next) {
		t.mu.Unlock()
		return nil
	}
	addr, ok := t.fabric.lookup(host)
	t.mu.Unlock()
	if !ok {
		return nil
	}
	// Dial outside the lock so a slow connect doesn't block dropConn or
	// close; the race of two concurrent dials is benign (one wins below).
	c, err := net.DialTimeout("tcp", addr, time.Second)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		rs := t.redial[host]
		if rs == nil {
			rs = &redialState{}
			t.redial[host] = rs
		}
		backoff := tunnelRedialBase << min(rs.fails, 5)
		if backoff > tunnelRedialMax {
			backoff = tunnelRedialMax
		}
		rs.fails++
		rs.next = time.Now().Add(backoff)
		return nil
	}
	delete(t.redial, host)
	if oc, ok := t.outs[host]; ok {
		_ = c.Close()
		return oc
	}
	select {
	case <-t.closed:
		_ = c.Close()
		return nil
	default:
	}
	oc := &tunnelConn{c: c, bw: bufio.NewWriterSize(c, 128<<10)}
	t.outs[host] = oc
	return oc
}

func (t *tunnelEndpoint) dropConn(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if oc, ok := t.outs[host]; ok {
		_ = oc.c.Close()
		delete(t.outs, host)
	}
}

func (t *tunnelEndpoint) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		select {
		case <-t.closed:
			t.mu.Unlock()
			_ = c.Close()
			return
		default:
		}
		t.incon[c] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.ingressLoop(c)
	}
}

// ingressLoop injects received frames into the switch's tunnel port.
func (t *tunnelEndpoint) ingressLoop(c net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.incon, c)
		t.mu.Unlock()
		_ = c.Close()
	}()
	br := bufio.NewReaderSize(c, 128<<10)
	for {
		frame, err := readTunnelFrame(br)
		if err != nil {
			return
		}
		// Bounded backpressure into the switch; an abandoned frame is the
		// ring's one counted drop, and still ours to recycle.
		if t.port.WriteFrameTimeout(frame, switchfabric.WriteFrameWait) != nil {
			packet.PutFrameBuf(frame)
		}
	}
}
