package controller

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"typhoon/internal/coordinator"
	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/switchfabric"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// controlTap records the payload of every control tuple the controller
// hands its apps.
type controlTap struct {
	BaseApp
	mu  sync.Mutex
	got [][]byte
	src []packet.Addr
}

func (*controlTap) Name() string { return "control-tap" }

func (a *controlTap) OnControlTuple(_ *Controller, _ string, src packet.Addr, t tuple.Tuple) {
	if len(t.Values) == 0 || t.Values[0].Kind() != tuple.KindBytes {
		return
	}
	a.mu.Lock()
	a.got = append(a.got, bytes.Clone(t.Values[0].AsBytes()))
	a.src = append(a.src, src)
	a.mu.Unlock()
}

// TestSegmentedControlTupleReachesApps: a control tuple larger than one
// frame leaves a worker's transport as segments, each punted to the
// controller in its own PACKET_IN. The controller reassembles them and its
// apps see the tuple once, whole — the path a large SNAPSHOT_RESP takes.
func TestSegmentedControlTupleReachesApps(t *testing.T) {
	c, err := New(coordinator.NewStore(), Options{ID: "ctl-0", TickInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tap := &controlTap{}
	c.AddApp(tap)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	sw := switchfabric.New("h1", 1)
	sw.Start()
	t.Cleanup(sw.Stop)
	agent := ConnectSwitch([]string{c.Addr()}, sw)
	t.Cleanup(agent.Close)
	if !awaitCond(5*time.Second, func() bool { return c.datapath("h1") != nil }) {
		t.Fatal("the switch never connected")
	}

	self := packet.WorkerAddr(1, 7)
	port, err := sw.AddPort("w7", self)
	if err != nil {
		t.Fatal(err)
	}
	// The worker -> controller punt rule compileRules installs per worker.
	if err := sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: prioControl,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: port.No(), DlDst: packet.ControllerAddr, EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.Output(openflow.PortController)},
	}); err != nil {
		t.Fatal(err)
	}
	tr := worker.NewSDNTransport(1, 7, port, worker.SDNTransportConfig{})

	payload := make([]byte, 20<<10) // about three frames' worth
	rand.New(rand.NewSource(1)).Read(payload)
	// A small marker behind it is the barrier: one switch port, one pump and
	// one controller connection keep the two in order, so once the marker
	// arrives every PACKET_IN of the large tuple has been handled.
	marker := []byte("marker")
	for _, p := range [][]byte{payload, marker} {
		if err := tr.SendControl(tuple.OnStream(tuple.ControlStream, tuple.Bytes(p))); err != nil {
			t.Fatal(err)
		}
	}
	if !awaitCond(5*time.Second, func() bool {
		tap.mu.Lock()
		defer tap.mu.Unlock()
		n := len(tap.got)
		return n > 0 && bytes.Equal(tap.got[n-1], marker)
	}) {
		t.Fatal("the control tuples never reached the apps")
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.got) != 2 {
		t.Fatalf("apps saw %d control tuples, want the large one then the marker", len(tap.got))
	}
	if !bytes.Equal(tap.got[0], payload) {
		t.Fatalf("apps saw %d bytes, not the %d sent", len(tap.got[0]), len(payload))
	}
	if tap.src[0] != self {
		t.Fatalf("source %s, want %s", tap.src[0], self)
	}
}
