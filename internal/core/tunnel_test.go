package core

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/switchfabric"
)

// stallingSink blocks the switch pump inside PacketIn until released, so a
// port's ingress ring can be held full.
type stallingSink struct {
	entered chan struct{}
	release chan struct{}
}

func (s *stallingSink) PacketIn(openflow.PacketIn) {
	select {
	case s.entered <- struct{}{}:
	default:
	}
	<-s.release
}
func (s *stallingSink) PortStatus(openflow.PortStatus)   {}
func (s *stallingSink) FlowRemoved(openflow.FlowRemoved) {}

// TestTunnelIngressOverflowCountsOneDrop: a frame the tunnel ingress abandons
// against a full ring is exactly one ring drop (PortStats.RxDropped on tun0),
// not one per retry of a sleep-poll loop.
func TestTunnelIngressOverflowCountsOneDrop(t *testing.T) {
	sw := switchfabric.New("h1", 1, switchfabric.Options{RingCapacity: 4})
	sw.Start()
	sink := &stallingSink{entered: make(chan struct{}, 1), release: make(chan struct{})}
	sw.AttachController(sink)
	sw.ClaimMaster(sink, 1)
	tport, err := sw.AddTunnelPort("tun0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match:   openflow.Match{Fields: openflow.FieldInPort, InPort: tport.No()},
		Actions: []openflow.Action{openflow.Output(openflow.PortController)},
	}); err != nil {
		t.Fatal(err)
	}
	fabric := newTunnelFabric()
	tun, err := startTunnel("h1", tport, fabric, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(sink.release)
		sw.Stop() // closes the port rings, which is what ends the tunnel's egress loop
		tun.close()
	})

	frame := func() []byte {
		return packet.EncodeTuples(packet.WorkerAddr(1, 2), packet.WorkerAddr(1, 1), [][]byte{{0}})
	}
	// Stall the pump on the first frame, then fill the ring behind it.
	tport.WriteFrame(frame())
	select {
	case <-sink.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("pump never reached the controller sink")
	}
	for tport.WriteFrame(frame()) {
	}
	dropped := func() uint64 {
		for _, ps := range sw.PortStatsSnapshot() {
			if ps.PortNo == tport.No() {
				return ps.RxDropped
			}
		}
		t.Fatal("tunnel port missing from stats")
		return 0
	}
	before := dropped()

	addr, _ := fabric.lookup("h1")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	f := frame()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(f)))
	if _, err := conn.Write(append(hdr[:], f...)); err != nil {
		t.Fatal(err)
	}
	// Closing the connection ends the ingress loop once it has given up on
	// the frame, so its exit marks the drop count as final.
	_ = conn.Close()
	waitCond(t, 5*time.Second, "tunnel ingress loop exit", func() bool {
		tun.mu.Lock()
		defer tun.mu.Unlock()
		return len(tun.incon) == 0 && dropped() > before
	})
	if delta := dropped() - before; delta != 1 {
		t.Fatalf("one abandoned tunnel frame counted %d ring drops, want 1", delta)
	}
}

// FuzzTunnelFrame throws arbitrary byte streams at the tunnel's stream
// framing. The reader must never panic, never hand out (or allocate for) a
// frame above maxTunnelFrame, and every frame it returns must re-encode to
// exactly the bytes it consumed.
func FuzzTunnelFrame(f *testing.F) {
	var two bytes.Buffer
	_ = writeTunnelFrame(&two, []byte("first frame"))
	_ = writeTunnelFrame(&two, bytes.Repeat([]byte{0xAB}, 9000)) // longer than a pooled buffer
	f.Add(two.Bytes())
	f.Add(two.Bytes()[:two.Len()-1])               // cut mid-frame
	f.Add([]byte{0, 0, 0, 0})                      // zero length
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}) // 4 GiB announced
	f.Add(binary.BigEndian.AppendUint32(nil, maxTunnelFrame+1))
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var again bytes.Buffer
		for {
			frame, err := readTunnelFrame(r)
			if err != nil {
				break
			}
			if len(frame) == 0 || len(frame) > maxTunnelFrame {
				t.Fatalf("readTunnelFrame returned a %d-byte frame", len(frame))
			}
			if err := writeTunnelFrame(&again, frame); err != nil {
				t.Fatal(err)
			}
			packet.PutFrameBuf(frame)
		}
		if !bytes.HasPrefix(stream, again.Bytes()) {
			t.Fatalf("frames read re-encode to %x, not a prefix of the stream %x", again.Bytes(), stream)
		}
	})
}
