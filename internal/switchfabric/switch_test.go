package switchfabric

import (
	"sync"
	"testing"
	"time"

	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/tuple"
)

type recordingSink struct {
	mu       sync.Mutex
	packetIn []openflow.PacketIn
	ports    []openflow.PortStatus
	removed  []openflow.FlowRemoved
}

func (r *recordingSink) PacketIn(m openflow.PacketIn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.packetIn = append(r.packetIn, m)
}

func (r *recordingSink) PortStatus(m openflow.PortStatus) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ports = append(r.ports, m)
}

func (r *recordingSink) FlowRemoved(m openflow.FlowRemoved) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.removed = append(r.removed, m)
}

func (r *recordingSink) counts() (int, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.packetIn), len(r.ports), len(r.removed)
}

// attachMaster connects sink the way a controller link does: attached, then
// granted the master role at the first lease epoch.
func attachMaster(sw *Switch, sink ControllerSink) {
	sw.AttachController(sink)
	sw.ClaimMaster(sink, 1)
}

func newTestSwitch(t *testing.T) (*Switch, *recordingSink) {
	t.Helper()
	sink := &recordingSink{}
	sw := New("host-1", 1, Options{RingCapacity: 256, IdleScanInterval: 10 * time.Millisecond})
	attachMaster(sw, sink)
	sw.Start()
	t.Cleanup(sw.Stop)
	return sw, sink
}

func frameFor(dst, src packet.Addr, payload string) []byte {
	enc := tuple.Encode(tuple.New(tuple.String(payload)))
	return packet.EncodeTuples(dst, src, [][]byte{enc})
}

func unicastRule(in uint32, src, dst packet.Addr, outPort uint32) openflow.FlowMod {
	return openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlSrc | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: in, DlSrc: src, DlDst: dst, EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.Output(outPort)},
	}
}

func mustRead(t *testing.T, p *Port) []byte {
	t.Helper()
	frames, err := p.ReadBatch(nil, 1, 2*time.Second)
	if err != nil {
		t.Fatalf("ReadBatch: %v", err)
	}
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(frames))
	}
	return frames[0]
}

func TestUnicastForwarding(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)

	if err := sw.ApplyFlowMod(unicastRule(p1.No(), a1, a2, p2.No())); err != nil {
		t.Fatal(err)
	}
	frame := frameFor(a2, a1, "hello")
	if !p1.WriteFrame(frame) {
		t.Fatal("WriteFrame failed")
	}
	got := mustRead(t, p2)
	f, err := packet.Decode(got)
	if err != nil || f.Src != a1 || f.Dst != a2 {
		t.Fatalf("decoded %v err=%v", f, err)
	}
}

func TestTableMissDrops(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p1.WriteFrame(frameFor(a2, a1, "x"))
	deadline := time.Now().Add(time.Second)
	for sw.NoMatchDrops() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sw.NoMatchDrops() != 1 {
		t.Fatalf("NoMatchDrops = %d", sw.NoMatchDrops())
	}
}

func TestBroadcastReplication(t *testing.T) {
	sw, _ := newTestSwitch(t)
	src := packet.WorkerAddr(1, 1)
	p1, _ := sw.AddPort("w1", src)
	var sinks []*Port
	var acts []openflow.Action
	for i := 2; i <= 5; i++ {
		p, _ := sw.AddPort("w", packet.WorkerAddr(1, uint32(i)))
		sinks = append(sinks, p)
		acts = append(acts, openflow.Output(p.No()))
	}
	err := sw.ApplyFlowMod(openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: p1.No(), DlDst: packet.Broadcast, EtherType: packet.EtherType,
		},
		Actions: acts,
	})
	if err != nil {
		t.Fatal(err)
	}
	p1.WriteFrame(frameFor(packet.Broadcast, src, "fanout"))
	for _, p := range sinks {
		f, err := packet.Decode(mustRead(t, p))
		if err != nil || f.Src != src {
			t.Fatalf("sink %d: %v err=%v", p.No(), f, err)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	p3, _ := sw.AddPort("w3", packet.WorkerAddr(1, 3))

	low := unicastRule(p1.No(), a1, a2, p3.No())
	low.Priority = 10
	if err := sw.ApplyFlowMod(low); err != nil {
		t.Fatal(err)
	}
	high := unicastRule(p1.No(), a1, a2, p2.No())
	high.Priority = 200
	if err := sw.ApplyFlowMod(high); err != nil {
		t.Fatal(err)
	}
	p1.WriteFrame(frameFor(a2, a1, "pri"))
	mustRead(t, p2) // the high-priority output port receives the frame
	if frames, _ := p3.ReadBatch(nil, 1, 50*time.Millisecond); len(frames) != 0 {
		t.Fatal("low-priority rule should not fire")
	}
}

func TestAddReplacesSamePriorityMatch(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	p3, _ := sw.AddPort("w3", packet.WorkerAddr(1, 3))
	sw.ApplyFlowMod(unicastRule(p1.No(), a1, a2, p2.No()))
	sw.ApplyFlowMod(unicastRule(p1.No(), a1, a2, p3.No())) // same match+prio, new action
	if sw.RuleCount() != 1 {
		t.Fatalf("rule count = %d, want 1 (replace)", sw.RuleCount())
	}
	p1.WriteFrame(frameFor(a2, a1, "replaced"))
	mustRead(t, p3)
}

func TestFlowDeleteLooseAndStrict(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2, a3 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2), packet.WorkerAddr(1, 3)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	sw.ApplyFlowMod(unicastRule(p1.No(), a1, a2, p2.No()))
	sw.ApplyFlowMod(unicastRule(p1.No(), a1, a3, p2.No()))
	if sw.RuleCount() != 2 {
		t.Fatal("setup failed")
	}
	// Loose delete by dl_dst subsumption removes only the a2 rule.
	sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowDelete,
		Match:   openflow.Match{Fields: openflow.FieldDlDst, DlDst: a2},
	})
	if sw.RuleCount() != 1 {
		t.Fatalf("rule count after loose delete = %d", sw.RuleCount())
	}
	// Strict delete with wrong priority removes nothing.
	sw.ApplyFlowMod(openflow.FlowMod{
		Command:  openflow.FlowDeleteStrict,
		Priority: 5,
		Match:    unicastRule(p1.No(), a1, a3, p2.No()).Match,
	})
	if sw.RuleCount() != 1 {
		t.Fatal("strict delete with wrong priority should not remove")
	}
	sw.ApplyFlowMod(openflow.FlowMod{
		Command:  openflow.FlowDeleteStrict,
		Priority: 100,
		Match:    unicastRule(p1.No(), a1, a3, p2.No()).Match,
	})
	if sw.RuleCount() != 0 {
		t.Fatal("strict delete failed")
	}
}

func TestIdleTimeoutExpiryNotifies(t *testing.T) {
	sw, sink := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	fm := unicastRule(p1.No(), a1, a2, p2.No())
	fm.IdleTimeoutMs = 30
	fm.Flags = openflow.FlagSendFlowRem
	sw.ApplyFlowMod(fm)
	deadline := time.Now().Add(2 * time.Second)
	for sw.RuleCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sw.RuleCount() != 0 {
		t.Fatal("rule did not expire")
	}
	deadline = time.Now().Add(time.Second)
	for {
		_, _, rem := sink.counts()
		if rem > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, rem := sink.counts(); rem != 1 {
		t.Fatalf("FlowRemoved count = %d", rem)
	}
}

func TestIdleTimeoutRefreshedByTraffic(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	fm := unicastRule(p1.No(), a1, a2, p2.No())
	fm.IdleTimeoutMs = 80
	sw.ApplyFlowMod(fm)
	// Keep the rule warm for 300 ms.
	stop := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(stop) {
		p1.WriteFrame(frameFor(a2, a1, "warm"))
		time.Sleep(20 * time.Millisecond)
	}
	if sw.RuleCount() != 1 {
		t.Fatal("active rule must not expire")
	}
}

func TestPacketInViaControllerOutput(t *testing.T) {
	sw, sink := newTestSwitch(t)
	a1 := packet.WorkerAddr(1, 1)
	p1, _ := sw.AddPort("w1", a1)
	sw.ApplyFlowMod(openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst,
			InPort: p1.No(), DlDst: packet.ControllerAddr,
		},
		Actions: []openflow.Action{openflow.Output(openflow.PortController)},
	})
	p1.WriteFrame(frameFor(packet.ControllerAddr, a1, "metrics"))
	deadline := time.Now().Add(time.Second)
	for {
		pi, _, _ := sink.counts()
		if pi > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if pi, _, _ := sink.counts(); pi != 1 {
		t.Fatalf("PacketIn count = %d", pi)
	}
}

func TestPacketOutInjection(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1 := packet.WorkerAddr(1, 1)
	p1, _ := sw.AddPort("w1", a1)
	frame := frameFor(a1, packet.ControllerAddr, "ctrl")
	err := sw.Inject(openflow.PacketOut{
		InPort:  openflow.PortController,
		Actions: []openflow.Action{openflow.Output(p1.No())},
		Data:    frame,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustRead(t, p1)
	if err := sw.Inject(openflow.PacketOut{}); err == nil {
		t.Fatal("empty packet-out should fail")
	}
}

func TestSelectGroupWeightedRoundRobin(t *testing.T) {
	sw, _ := newTestSwitch(t)
	src := packet.WorkerAddr(1, 1)
	d1, d2 := packet.WorkerAddr(1, 2), packet.WorkerAddr(1, 3)
	p1, _ := sw.AddPort("w1", src)
	q1, _ := sw.AddPort("w2", d1)
	q2, _ := sw.AddPort("w3", d2)
	sw.ApplyGroupMod(openflow.GroupMod{
		Command: openflow.GroupAdd, GroupID: 1, Type: openflow.GroupSelect,
		Buckets: []openflow.Bucket{
			{Weight: 3, Actions: []openflow.Action{openflow.SetDlDst(d1), openflow.Output(q1.No())}},
			{Weight: 1, Actions: []openflow.Action{openflow.SetDlDst(d2), openflow.Output(q2.No())}},
		},
	})
	sw.ApplyFlowMod(openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 100,
		Match:    openflow.Match{Fields: openflow.FieldInPort, InPort: p1.No()},
		Actions:  []openflow.Action{openflow.ToGroup(1)},
	})
	// Two rounds of 200, so q1's share fits its 256-frame ring. Each round
	// waits for the pump on the evidence, not on a gap between reads (a
	// starved pump pauses mid-stream for longer than any fixed read wait),
	// then drains both ports without waiting.
	const total, rounds = 400, 2
	drain := func(p *Port, want packet.Addr) int {
		n := 0
		for {
			frames, err := p.ReadBatch(nil, 64, 0)
			if err != nil || len(frames) == 0 {
				return n
			}
			for _, fr := range frames {
				dst, _, _ := packet.PeekAddrs(fr)
				if dst != want {
					t.Fatalf("frame dst %v, want %v (SetDlDst not applied)", dst, want)
				}
			}
			n += len(frames)
		}
	}
	n1, n2 := 0, 0
	for r := 1; r <= rounds; r++ {
		for i := 0; i < total/rounds; i++ {
			if !p1.WriteFrame(frameFor(packet.Broadcast, src, "lb")) {
				t.Fatal("ingress ring full")
			}
		}
		waitCounter(t, func() uint64 { return sw.CountersSnapshot().Forwarded }, uint64(r*total/rounds), "forwarded frames")
		n1 += drain(q1, d1)
		n2 += drain(q2, d2)
	}
	if n1+n2 != total {
		t.Fatalf("delivered %d+%d, want %d", n1, n2, total)
	}
	if n1 != 300 || n2 != 100 {
		t.Fatalf("weights not honored: %d vs %d", n1, n2)
	}
}

func TestGroupAllReplicates(t *testing.T) {
	sw, _ := newTestSwitch(t)
	src := packet.WorkerAddr(1, 1)
	p1, _ := sw.AddPort("w1", src)
	q1, _ := sw.AddPort("w2", packet.WorkerAddr(1, 2))
	q2, _ := sw.AddPort("w3", packet.WorkerAddr(1, 3))
	sw.ApplyGroupMod(openflow.GroupMod{
		Command: openflow.GroupAdd, GroupID: 2, Type: openflow.GroupAll,
		Buckets: []openflow.Bucket{
			{Actions: []openflow.Action{openflow.Output(q1.No())}},
			{Actions: []openflow.Action{openflow.Output(q2.No())}},
		},
	})
	sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 1,
		Match:   openflow.Match{Fields: openflow.FieldInPort, InPort: p1.No()},
		Actions: []openflow.Action{openflow.ToGroup(2)},
	})
	p1.WriteFrame(frameFor(packet.Broadcast, src, "all"))
	mustRead(t, q1)
	mustRead(t, q2)
}

func TestTunnelEncapOnOutput(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	tun, _ := sw.AddTunnelPort("tun0")
	if !tun.IsTunnel() {
		t.Fatal("tunnel port not marked")
	}
	sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst,
			InPort: p1.No(), DlDst: a2,
		},
		Actions: []openflow.Action{openflow.SetTunnelDst("host-2"), openflow.Output(tun.No())},
	})
	inner := frameFor(a2, a1, "remote")
	p1.WriteFrame(inner)
	got := mustRead(t, tun)
	host, decap, err := DecapTunnel(got)
	if err != nil || string(host) != "host-2" {
		t.Fatalf("host=%q err=%v", host, err)
	}
	if string(decap) != string(inner) {
		t.Fatal("inner frame mangled")
	}
}

func TestPortLifecycleEvents(t *testing.T) {
	sw, sink := newTestSwitch(t)
	p, _ := sw.AddPort("w1", packet.WorkerAddr(1, 1))
	if err := sw.RemovePort(p.No()); err != nil {
		t.Fatal(err)
	}
	if err := sw.RemovePort(p.No()); err == nil {
		t.Fatal("double remove should fail")
	}
	_, ports, _ := sink.counts()
	if ports != 2 { // add + delete
		t.Fatalf("port events = %d, want 2", ports)
	}
	if !p.Closed() {
		t.Fatal("removed port should be closed")
	}
	if sw.Port(p.No()) != nil {
		t.Fatal("removed port still resolvable")
	}
}

func TestStatsSnapshots(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	sw.ApplyFlowMod(unicastRule(p1.No(), a1, a2, p2.No()))
	for i := 0; i < 10; i++ {
		p1.WriteFrame(frameFor(a2, a1, "s"))
	}
	for i := 0; i < 10; i++ {
		mustRead(t, p2)
	}
	var rx, tx uint64
	for _, ps := range sw.PortStatsSnapshot() {
		rx += ps.RxPackets
		tx += ps.TxPackets
	}
	if rx != 10 || tx != 10 {
		t.Fatalf("port stats rx=%d tx=%d", rx, tx)
	}
	fs := sw.FlowStatsSnapshot()
	if len(fs) != 1 || fs[0].Packets != 10 || fs[0].Bytes == 0 {
		t.Fatalf("flow stats = %+v", fs)
	}
}

func TestModifyRuleActions(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	p3, _ := sw.AddPort("w3", packet.WorkerAddr(1, 3))
	sw.ApplyFlowMod(unicastRule(p1.No(), a1, a2, p2.No()))
	sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowModify,
		Match:   openflow.Match{Fields: openflow.FieldDlDst, DlDst: a2},
		Actions: []openflow.Action{openflow.Output(p3.No())},
	})
	p1.WriteFrame(frameFor(a2, a1, "mod"))
	mustRead(t, p3)
}

func TestFeaturesPorts(t *testing.T) {
	sw, _ := newTestSwitch(t)
	sw.AddPort("w1", packet.WorkerAddr(1, 1))
	sw.AddTunnelPort("tun0")
	if len(sw.Ports()) != 2 {
		t.Fatalf("ports = %d", len(sw.Ports()))
	}
	if sw.Name() != "host-1" || sw.DatapathID() != 1 {
		t.Fatal("identity accessors")
	}
}

func TestStoppedSwitchRejectsPorts(t *testing.T) {
	sw := New("h", 9, Options{})
	sw.Start()
	sw.Stop()
	if _, err := sw.AddPort("w", packet.WorkerAddr(1, 1)); err == nil {
		t.Fatal("AddPort after Stop should fail")
	}
}

func TestEncapDecapErrors(t *testing.T) {
	if _, _, err := DecapTunnel([]byte{0}); err != ErrBadEncap {
		t.Fatalf("short: %v", err)
	}
	if _, _, err := DecapTunnel([]byte{0, 9, 'a'}); err != ErrBadEncap {
		t.Fatalf("bad len: %v", err)
	}
	h, f, err := DecapTunnel(EncapTunnel("h", []byte("frame")))
	if err != nil || string(h) != "h" || string(f) != "frame" {
		t.Fatal("round trip failed")
	}
}
