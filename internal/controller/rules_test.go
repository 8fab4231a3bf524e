package controller

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"typhoon/internal/coordinator"
	"typhoon/internal/paths"

	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// fixture: src(w1@h1) -> mid(w2@h1, w3@h2) -> sink(w4@h2)
func fixture(policy topology.RoutingPolicy) (*topology.Logical, *topology.Physical) {
	l := &topology.Logical{
		App: 1, Name: "t",
		Nodes: []topology.NodeSpec{
			{Name: "src", Logic: "l", Parallelism: 1, Source: true},
			{Name: "mid", Logic: "l", Parallelism: 2},
			{Name: "sink", Logic: "l", Parallelism: 1},
		},
		Edges: []topology.EdgeSpec{
			{From: "src", To: "mid", Policy: policy, HashFields: []int{0}},
			{From: "mid", To: "sink", Policy: topology.Global},
		},
	}
	p := &topology.Physical{
		App: 1, Name: "t", NextWorker: 5,
		Workers: []topology.Assignment{
			{Worker: 1, Node: "src", Index: 0, Host: "h1", Port: 10},
			{Worker: 2, Node: "mid", Index: 0, Host: "h1", Port: 11},
			{Worker: 3, Node: "mid", Index: 1, Host: "h2", Port: 20},
			{Worker: 4, Node: "sink", Index: 0, Host: "h2", Port: 21},
		},
	}
	return l, p
}

var testTun = map[string]uint32{"h1": 99, "h2": 98}

func unitWeight(topology.WorkerID) uint16 { return 1 }

func compile(t *testing.T, policy topology.RoutingPolicy) map[ruleKey]openflow.FlowMod {
	t.Helper()
	l, p := fixture(policy)
	rules, _ := compileRules(l, p, testTun, func(topology.WorkerID) uint32 { return 1 }, unitWeight, 0)
	return rules
}

func findRule(rules map[ruleKey]openflow.FlowMod, host string, pred func(openflow.FlowMod) bool) *openflow.FlowMod {
	for k, fm := range rules {
		if k.host == host && pred(fm) {
			out := fm
			return &out
		}
	}
	return nil
}

func TestCompileLocalUnicast(t *testing.T) {
	rules := compile(t, topology.Shuffle)
	// src(w1) -> mid(w2), same host: plain output rule.
	fm := findRule(rules, "h1", func(fm openflow.FlowMod) bool {
		return fm.Match.DlDst == packet.WorkerAddr(1, 2) && fm.Match.InPort == 10
	})
	if fm == nil {
		t.Fatal("local unicast rule missing")
	}
	if len(fm.Actions) != 1 || fm.Actions[0].Port != 11 {
		t.Fatalf("actions = %v", fm.Actions)
	}
}

func TestCompileRemoteUnicastUsesTunnel(t *testing.T) {
	rules := compile(t, topology.Shuffle)
	// Sender rule on h1: set_tun_dst=h2, output tunnel (Table 3).
	send := findRule(rules, "h1", func(fm openflow.FlowMod) bool {
		return fm.Match.DlDst == packet.WorkerAddr(1, 3)
	})
	if send == nil {
		t.Fatal("remote sender rule missing")
	}
	if send.Actions[0].Type != openflow.ActSetTunnelDst || send.Actions[0].Host != "h2" {
		t.Fatalf("sender actions = %v", send.Actions)
	}
	if send.Actions[1].Port != testTun["h1"] {
		t.Fatal("sender must output to its tunnel port")
	}
	// Receiver rule on h2: in_port=tunnel → worker port.
	recv := findRule(rules, "h2", func(fm openflow.FlowMod) bool {
		return fm.Match.DlDst == packet.WorkerAddr(1, 3) && fm.Match.InPort == testTun["h2"]
	})
	if recv == nil {
		t.Fatal("remote receiver rule missing")
	}
	if recv.Actions[0].Port != 20 {
		t.Fatalf("receiver actions = %v", recv.Actions)
	}
}

func TestCompileControllerRules(t *testing.T) {
	rules := compile(t, topology.Shuffle)
	n := 0
	for k, fm := range rules {
		if fm.Priority == prioControl {
			n++
			if fm.Match.DlDst != packet.ControllerAddr {
				t.Fatal("controller rule must match the controller address")
			}
			if fm.Actions[0].Port != openflow.PortController {
				t.Fatal("controller rule must output to CONTROLLER")
			}
			_ = k
		}
	}
	if n != 4 {
		t.Fatalf("controller rules = %d, want one per worker", n)
	}
}

func TestCompileBroadcast(t *testing.T) {
	rules := compile(t, topology.All)
	// One ingress broadcast rule on h1 covering the local port and the
	// remote host's tunnel exactly once.
	fm := findRule(rules, "h1", func(fm openflow.FlowMod) bool {
		return fm.Match.DlDst == packet.Broadcast && fm.Match.InPort == 10
	})
	if fm == nil {
		t.Fatal("broadcast ingress rule missing")
	}
	var localOut, tunOut, setTun int
	for _, a := range fm.Actions {
		switch {
		case a.Type == openflow.ActOutput && a.Port == 11:
			localOut++
		case a.Type == openflow.ActOutput && a.Port == testTun["h1"]:
			tunOut++
		case a.Type == openflow.ActSetTunnelDst:
			setTun++
		}
	}
	if localOut != 1 || tunOut != 1 || setTun != 1 {
		t.Fatalf("broadcast actions = %v", fm.Actions)
	}
	// Landing rule on h2 replicates to its local target.
	land := findRule(rules, "h2", func(fm openflow.FlowMod) bool {
		return fm.Match.DlDst == packet.Broadcast && fm.Match.InPort == testTun["h2"]
	})
	if land == nil {
		t.Fatal("broadcast landing rule missing")
	}
	if land.Match.DlSrc != packet.WorkerAddr(1, 1) {
		t.Fatal("landing rule must scope by source worker")
	}
}

func TestCompileSDNBalancedGroups(t *testing.T) {
	l, p := fixture(topology.SDNBalanced)
	rules, groups := compileRules(l, p, testTun, func(topology.WorkerID) uint32 { return 7 }, unitWeight, 0)
	if len(groups) != 1 || groups[0].host != "h1" {
		t.Fatalf("groups = %+v", groups)
	}
	gm := groups[0].gm
	if gm.Type != openflow.GroupSelect || len(gm.Buckets) != 2 {
		t.Fatalf("group = %+v", gm)
	}
	// Each bucket rewrites the destination; the remote one tunnels.
	for _, b := range gm.Buckets {
		if b.Actions[0].Type != openflow.ActSetDlDst {
			t.Fatal("bucket must rewrite destination")
		}
	}
	fm := findRule(rules, "h1", func(fm openflow.FlowMod) bool {
		return fm.Match.DlDst == packet.Broadcast && fm.Match.InPort == 10
	})
	if fm == nil || fm.Actions[0].Type != openflow.ActGroup || fm.Actions[0].Group != 7 {
		t.Fatalf("group ingress rule = %+v", fm)
	}
	// Remote landing rules exist for the rewritten destination.
	if findRule(rules, "h2", func(fm openflow.FlowMod) bool {
		return fm.Match.DlDst == packet.WorkerAddr(1, 3) && fm.Match.InPort == testTun["h2"]
	}) == nil {
		t.Fatal("SDN-balanced remote landing rule missing")
	}
}

// The idle timeout applied to a compiled rule is none: a live rule must not
// age out under a quiet edge. Only rules being phased out get one
// (staleRuleIdleMs, set where SyncTopology re-installs them).
func TestCompileIdleTimeoutApplied(t *testing.T) {
	l, p := fixture(topology.Shuffle)
	rules, _ := compileRules(l, p, testTun, func(topology.WorkerID) uint32 { return 1 }, unitWeight, 0)
	for _, fm := range rules {
		if fm.IdleTimeoutMs != 0 {
			t.Fatalf("live rule would expire: %+v", fm)
		}
	}
}

func TestCompileAckEdges(t *testing.T) {
	// Framework streams compile like any other edge: acker unicast rules.
	l, p := fixture(topology.Shuffle)
	l.Edges = append(l.Edges, topology.EdgeSpec{
		From: "src", To: "sink", Policy: topology.Fields,
		HashFields: []int{1}, Stream: tuple.AckStream,
	})
	rules, _ := compileRules(l, p, testTun, func(topology.WorkerID) uint32 { return 1 }, unitWeight, 0)
	if findRule(rules, "h1", func(fm openflow.FlowMod) bool {
		return fm.Match.DlDst == packet.WorkerAddr(1, 4) && fm.Match.InPort == 10
	}) == nil {
		t.Fatal("ack edge rule missing")
	}
}

func TestStaleRuleIdleMs(t *testing.T) {
	if staleRuleIdleMs != 2000 {
		t.Fatal("default stale idle timeout")
	}
}

// QoS compilation: data rules carry the topology meter and a set_queue
// selecting the rate class's egress queue; control punts stay untouched.
func TestCompileRulesQoS(t *testing.T) {
	l, p := fixture(topology.Shuffle)
	l.QoSClass = topology.QoSBurstable
	rules, _ := compileRules(l, p, testTun, func(topology.WorkerID) uint32 { return 1 }, unitWeight, 42)
	for _, fm := range rules {
		if fm.Priority == prioControl {
			if fm.Meter != 0 {
				t.Fatalf("control rule got metered: %+v", fm)
			}
			continue
		}
		if fm.Meter != 42 {
			t.Fatalf("data rule missing meter: %+v", fm)
		}
		a := fm.Actions[0]
		if a.Type != openflow.ActSetQueue || a.Queue != topology.QoSClassID(topology.QoSBurstable) {
			t.Fatalf("data rule missing class queue: %+v", fm)
		}
	}
	// QoS off (meterID 0): byte-identical to the legacy rule set.
	plain, _ := compileRules(l, p, testTun, func(topology.WorkerID) uint32 { return 1 }, unitWeight, 0)
	for _, fm := range plain {
		if fm.Meter != 0 || fm.Actions[0].Type == openflow.ActSetQueue {
			t.Fatalf("QoS leaked into non-QoS compilation: %+v", fm)
		}
	}
}

// TestSyncBarrierBeforeControlTuples: no ROUTING or ACTIVATE may leave before
// every switch has applied the rules of the generation (§3.2 step v). h2 is a
// switch that takes 5 ms over each FlowMod; when the first PACKET_OUT reaches
// h1, h2 must have applied everything it was sent.
func TestSyncBarrierBeforeControlTuples(t *testing.T) {
	kv := coordinator.NewStore()
	c, err := New(kv, Options{ID: "ctl-0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	var received, applied atomic.Int64
	behind := make(chan int64, 1)
	fakeSwitch := func(host string, slow bool) {
		nc, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		t.Cleanup(func() { _ = nc.Close() })
		conn := openflow.NewConn(nc)
		go func() {
			for {
				xid, msg, err := conn.Receive()
				if err != nil {
					return
				}
				switch m := msg.(type) {
				case openflow.FeaturesRequest:
					_ = conn.SendXID(xid, openflow.FeaturesReply{
						DatapathID: 1, Host: host, Ports: []openflow.PortInfo{{No: testTun[host], Name: "tun0"}},
					})
				case openflow.FlowMod:
					if slow {
						received.Add(1)
						time.Sleep(5 * time.Millisecond)
						applied.Add(1)
					}
				case openflow.StatsRequest:
					_ = conn.SendXID(xid, openflow.StatsReply{Kind: m.Kind})
				case openflow.PacketOut:
					select {
					case behind <- received.Load() - applied.Load():
					default:
					}
				}
			}
		}()
	}
	fakeSwitch("h1", false)
	fakeSwitch("h2", true)
	for c.datapath("h1") == nil || c.datapath("h2") == nil {
		time.Sleep(time.Millisecond)
	}
	l, p := fixture(topology.Shuffle)
	_, _ = kv.Put(paths.Logical(l.Name), l.Encode())
	_, _ = kv.Put(paths.Physical(p.Name), p.Encode())

	select {
	case n := <-behind:
		if n != 0 || applied.Load() == 0 {
			t.Fatalf("control tuples sent with %d of h2's %d FlowMods still unapplied", n, received.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no control tuple was sent")
	}
}
