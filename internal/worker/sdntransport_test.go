package worker

import (
	"testing"
	"time"

	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// newSwitchPair wires src worker 1 and sink workers over one switch with
// unicast and broadcast rules installed.
func newSwitchEnv(t *testing.T, sinks int) (*switchfabric.Switch, *SDNTransport, []*SDNTransport) {
	t.Helper()
	sw := switchfabric.New("h1", 1, switchfabric.Options{RingCapacity: 4096})
	sw.Start()
	t.Cleanup(sw.Stop)

	srcAddr := packet.WorkerAddr(1, 1)
	srcPort, err := sw.AddPort("w1", srcAddr)
	if err != nil {
		t.Fatal(err)
	}
	srcTr := NewSDNTransport(1, 1, srcPort, SDNTransportConfig{BatchSize: 1})

	var sinkTrs []*SDNTransport
	var outs []openflow.Action
	for i := 0; i < sinks; i++ {
		id := topology.WorkerID(2 + i)
		addr := packet.WorkerAddr(1, uint32(id))
		p, err := sw.AddPort("w", addr)
		if err != nil {
			t.Fatal(err)
		}
		sinkTrs = append(sinkTrs, NewSDNTransport(1, id, p, SDNTransportConfig{BatchSize: 1}))
		outs = append(outs, openflow.Output(p.No()))
		// Unicast rule src -> sink.
		if err := sw.ApplyFlowMod(openflow.FlowMod{
			Command: openflow.FlowAdd, Priority: 100,
			Match: openflow.Match{
				Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
				InPort: srcPort.No(), DlDst: addr, EtherType: packet.EtherType,
			},
			Actions: []openflow.Action{openflow.Output(p.No())},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Broadcast rule src -> all sinks.
	if err := sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: srcPort.No(), DlDst: packet.Broadcast, EtherType: packet.EtherType,
		},
		Actions: outs,
	}); err != nil {
		t.Fatal(err)
	}
	return sw, srcTr, sinkTrs
}

func recvN(t *testing.T, tr *SDNTransport, n int) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	deadline := time.Now().Add(5 * time.Second)
	for len(out) < n {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", len(out), n)
		}
		got, err := tr.Recv(64, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, got...)
	}
	return out
}

func TestSDNTransportUnicast(t *testing.T) {
	_, src, sinks := newSwitchEnv(t, 1)
	for i := 0; i < 50; i++ {
		err := src.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
	}
	_ = src.Flush()
	got := recvN(t, sinks[0], 50)
	for i, tp := range got {
		if tp.Field(0).AsInt() != int64(i) {
			t.Fatalf("got[%d] = %v (order broken)", i, tp)
		}
	}
}

func TestSDNTransportBroadcastSingleSerialization(t *testing.T) {
	_, src, sinks := newSwitchEnv(t, 4)
	const n = 20
	for i := 0; i < n; i++ {
		err := src.Send(Destination{
			Workers:   []topology.WorkerID{2, 3, 4, 5},
			Broadcast: true,
		}, tuple.New(tuple.String("fanout"), tuple.Int(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
	}
	_ = src.Flush()
	for _, sink := range sinks {
		recvN(t, sink, n)
	}
	s := src.Stats()
	if s.Serializations != n {
		t.Fatalf("serializations = %d, want %d (one per tuple regardless of fan-out)", s.Serializations, n)
	}
	if s.FramesSent != n {
		t.Fatalf("frames = %d, want %d (switch replicates)", s.FramesSent, n)
	}
}

func TestSDNTransportBatching(t *testing.T) {
	_, src, sinks := newSwitchEnv(t, 1)
	src.SetBatchSize(10)
	if src.BatchSize() != 10 {
		t.Fatal("batch size not applied")
	}
	for i := 0; i < 9; i++ {
		_ = src.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(int64(i))))
	}
	// Below the batch threshold nothing should be on the wire yet.
	if got, _ := sinks[0].Recv(64, 50*time.Millisecond); len(got) != 0 {
		t.Fatalf("premature flush: %d tuples", len(got))
	}
	_ = src.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(9)))
	recvN(t, sinks[0], 10)
}

// TestSDNTransportRecvReusesSlice pins the zero-alloc delivery contract:
// consecutive Recv calls hand out windows of the transport's reusable decode
// buffer, while the tuples themselves stay valid after later refills.
func TestSDNTransportRecvReusesSlice(t *testing.T) {
	_, src, sinks := newSwitchEnv(t, 1)
	src.SetBatchSize(100)
	send := func(base int) {
		for i := 0; i < 10; i++ {
			err := src.Send(Destination{Workers: []topology.WorkerID{2}},
				tuple.New(tuple.String("retained-payload"), tuple.Int(int64(base+i))))
			if err != nil {
				t.Fatal(err)
			}
		}
		_ = src.Flush()
	}
	send(0)
	out1, err := sinks[0].Recv(5, time.Second)
	if err != nil || len(out1) != 5 {
		t.Fatalf("first Recv: %d tuples, err %v", len(out1), err)
	}
	out2, err := sinks[0].Recv(5, time.Second)
	if err != nil || len(out2) != 5 {
		t.Fatalf("second Recv: %d tuples, err %v", len(out2), err)
	}
	if cap(out1) < 6 || &out1[:6][5] != &out2[0] {
		t.Fatal("Recv did not hand out windows of one reusable buffer")
	}
	// Retain the first batch's strings across a refill: arena ownership
	// transfer means later decodes must never scribble over them.
	retained := make([]string, 0, 10)
	for _, tp := range append(append([]tuple.Tuple{}, out1...), out2...) {
		retained = append(retained, tp.Field(0).AsString())
	}
	send(10)
	out3 := recvN(t, sinks[0], 10)
	if out3[0].Field(1).AsInt() != 10 {
		t.Fatalf("refill starts at %d, want 10", out3[0].Field(1).AsInt())
	}
	for i, s := range retained {
		if s != "retained-payload" {
			t.Fatalf("retained[%d] corrupted after refill: %q", i, s)
		}
	}
}

// TestSDNTransportMaxSizeTupleStraddle covers a tuple whose encoding exactly
// fills one frame arriving while smaller tuples are staged: the staged frame
// must flush first (preserving order) and the max-size tuple must ride alone
// without being segmented.
func TestSDNTransportMaxSizeTupleStraddle(t *testing.T) {
	const maxPayload = 256
	sw := switchfabric.New("h1", 1, switchfabric.Options{RingCapacity: 4096})
	sw.Start()
	t.Cleanup(sw.Stop)
	srcAddr, dstAddr := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	srcPort, err := sw.AddPort("w1", srcAddr)
	if err != nil {
		t.Fatal(err)
	}
	dstPort, err := sw.AddPort("w2", dstAddr)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSDNTransport(1, 1, srcPort, SDNTransportConfig{BatchSize: 1000, MaxPayload: maxPayload})
	sink := NewSDNTransport(1, 2, dstPort, SDNTransportConfig{BatchSize: 1})
	if err := sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: srcPort.No(), DlDst: dstAddr, EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.Output(dstPort.No())},
	}); err != nil {
		t.Fatal(err)
	}
	d := Destination{Workers: []topology.WorkerID{2}}
	// Size the big tuple so its length-prefixed record is exactly maxPayload.
	overhead := len(tuple.Encode(tuple.New(tuple.Int(0), tuple.Bytes(nil))))
	pad := make([]byte, maxPayload-4-overhead)
	big := tuple.New(tuple.Int(3), tuple.Bytes(pad))
	if n := len(tuple.Encode(big)) + 4; n != maxPayload {
		t.Fatalf("big tuple record is %d bytes, want exactly %d", n, maxPayload)
	}
	for i := 0; i < 3; i++ {
		_ = src.Send(d, tuple.New(tuple.Int(int64(i)), tuple.Bytes(nil)))
	}
	if err := src.Send(d, big); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 6; i++ {
		_ = src.Send(d, tuple.New(tuple.Int(int64(i)), tuple.Bytes(nil)))
	}
	_ = src.Flush()
	got := recvN(t, sink, 6)
	for i, tp := range got {
		if tp.Field(0).AsInt() != int64(i) {
			t.Fatalf("got[%d] seq %d: straddling flush broke order", i, tp.Field(0).AsInt())
		}
	}
	if len(got[3].Field(1).AsBytes()) != len(pad) {
		t.Fatal("max-size tuple payload mangled")
	}
	// Frame 1: the three staged smalls, flushed to make room. Frame 2: the
	// max-size tuple alone. Frame 3: the trailing smalls. No segmentation.
	if f := src.Stats().FramesSent; f != 3 {
		t.Fatalf("frames sent = %d, want 3 (staged flush + full frame + tail)", f)
	}
}

func TestSDNTransportControlPath(t *testing.T) {
	sw, src, _ := newSwitchEnv(t, 1)
	srcPort := sw.Port(1)
	// Install the worker→controller rule of Table 3.
	if err := sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 200,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: srcPort.No(), DlDst: packet.ControllerAddr, EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.Output(openflow.PortController)},
	}); err != nil {
		t.Fatal(err)
	}
	sink := &recordingSink{packetIn: make(chan []byte, 4)}
	sw.AttachController(sink)
	sw.ClaimMaster(sink, 1)
	if err := src.SendControl(tuple.OnStream(tuple.ControlStream, tuple.String("METRIC_RESP"))); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-sink.packetIn:
		f, err := packet.Decode(data)
		if err != nil || !f.Dst.IsController() {
			t.Fatalf("frame: %+v err=%v", f, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no PacketIn at controller")
	}
}

type recordingSink struct{ packetIn chan []byte }

func (r *recordingSink) PacketIn(m openflow.PacketIn) {
	select {
	case r.packetIn <- m.Data:
	default:
	}
}
func (r *recordingSink) PortStatus(openflow.PortStatus)   {}
func (r *recordingSink) FlowRemoved(openflow.FlowRemoved) {}

func TestSDNTransportLargeTupleSegmentation(t *testing.T) {
	_, src, sinks := newSwitchEnv(t, 1)
	big := make([]byte, 3*packet.DefaultMaxPayload)
	for i := range big {
		big[i] = byte(i)
	}
	if err := src.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Bytes(big))); err != nil {
		t.Fatal(err)
	}
	_ = src.Flush()
	got := recvN(t, sinks[0], 1)
	if b := got[0].Field(0).AsBytes(); len(b) != len(big) || b[1234] != big[1234] {
		t.Fatal("segmented tuple mangled")
	}
	if src.Stats().FramesSent < 3 {
		t.Fatalf("frames = %d, want >= 3", src.Stats().FramesSent)
	}
}

func TestSDNTransportClosedPort(t *testing.T) {
	sw, src, _ := newSwitchEnv(t, 1)
	if err := sw.RemovePort(1); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Recv(1, 50*time.Millisecond); err == nil {
		t.Fatal("Recv on removed port should fail")
	}
	if src.InQueueLen() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestWorkerOverSDNTransport(t *testing.T) {
	// End-to-end: real workers over a real switch.
	_, srcTr, sinkTrs := newSwitchEnv(t, 1)
	srcTr.SetBatchSize(10)
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, sinkTrs[0])
	startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, &seqSource{limit: 500}, srcTr)
	waitFor(t, 10*time.Second, func() bool { return sink.count() == 500 })
}
