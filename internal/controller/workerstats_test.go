package controller

import (
	"net"
	"sync"
	"testing"
	"time"

	"typhoon/internal/control"
	"typhoon/internal/coordinator"
	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/paths"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// statsBed is a started controller over a fake h1 datapath (the pattern of
// TestSyncBarrierBeforeControlTuples) that counts the METRIC_REQ PACKET_OUTs
// each worker address is sent. The ticker is parked at an hour, so the only
// ticks are the ones a test drives by hand.
type statsBed struct {
	t  *testing.T
	c  *Controller
	kv *coordinator.Store

	mu   sync.Mutex
	reqs map[packet.Addr]int
}

func newStatsBed(t *testing.T, opts Options, setup func(kv *coordinator.Store)) *statsBed {
	t.Helper()
	opts.TickInterval = time.Hour
	if opts.ID == "" {
		opts.ID = "ctl-0"
	}
	b := &statsBed{t: t, kv: coordinator.NewStore(), reqs: make(map[packet.Addr]int)}
	if setup != nil {
		setup(b.kv)
	}
	c, err := New(b.kv, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	b.c = c

	nc, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
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
				_ = conn.SendXID(xid, openflow.FeaturesReply{DatapathID: 1, Host: "h1"})
			case openflow.StatsRequest:
				_ = conn.SendXID(xid, openflow.StatsReply{Kind: m.Kind})
			case openflow.PacketOut:
				f, err := packet.Decode(m.Data)
				if err != nil {
					continue
				}
				for _, raw := range f.Tuples {
					tp, _, err := tuple.Decode(raw)
					if err != nil {
						continue
					}
					if kind, _ := control.DecodeKind(tp); kind == control.KindMetricReq {
						b.mu.Lock()
						b.reqs[f.Dst]++
						b.mu.Unlock()
					}
				}
			}
		}
	}()
	b.await("h1's master", func() bool { _, _, ok := c.MasterOf("h1"); return ok })
	return b
}

func (b *statsBed) await(what string, cond func() bool) {
	b.t.Helper()
	if !awaitCond(5*time.Second, cond) {
		b.t.Fatalf("timeout waiting for %s", what)
	}
}

// chain submits app's topology name: src(w1) -> split(w2..) -> sink, all on
// h1, with the src->split edge under policy. Worker IDs start at 1 in every
// topology, as Physical.NextWorker has them.
func (b *statsBed) chain(name string, app uint16, splits int, policy topology.RoutingPolicy, qosClass string) {
	b.t.Helper()
	l := &topology.Logical{
		App: app, Name: name, QoSClass: qosClass,
		Nodes: []topology.NodeSpec{
			{Name: "src", Logic: "l", Parallelism: 1, Source: true},
			{Name: "split", Logic: "l", Parallelism: splits},
			{Name: "sink", Logic: "l", Parallelism: 1},
		},
		Edges: []topology.EdgeSpec{
			{From: "src", To: "split", Policy: policy},
			{From: "split", To: "sink", Policy: topology.Global},
		},
	}
	p := &topology.Physical{App: app, Name: name}
	add := func(node string, index int) {
		id := topology.WorkerID(len(p.Workers) + 1)
		p.Workers = append(p.Workers, topology.Assignment{
			Worker: id, Node: node, Index: index, Host: "h1", Port: uint32(app)*100 + uint32(id),
		})
	}
	add("src", 0)
	for i := 0; i < splits; i++ {
		add("split", i)
	}
	add("sink", 0)
	p.NextWorker = topology.WorkerID(len(p.Workers) + 1)
	_, _ = b.kv.Put(paths.Logical(name), l.Encode())
	_, _ = b.kv.Put(paths.Physical(name), p.Encode())
	b.await("topology "+name, func() bool {
		_, got := b.c.Topology(name)
		return got != nil
	})
}

// resp shows the controller one METRIC_RESP as a PacketIn punted by h1.
func (b *statsBed) resp(app uint16, mr control.MetricResp) {
	frame := packet.EncodeTuples(packet.ControllerAddr, packet.WorkerAddr(app, uint32(mr.Worker)),
		[][]byte{tuple.Encode(control.Encode(control.KindMetricResp, mr))})
	var arena tuple.Arena
	b.c.handlePacketIn(b.c.datapath("h1"), openflow.PacketIn{Data: frame}, packet.NewDepacketizer(), &arena)
}

// sent returns how many METRIC_REQs each worker address has been sent. The
// stats round trip is a barrier: the connection is ordered, so every earlier
// PACKET_OUT has been counted when the reply arrives.
func (b *statsBed) sent() map[packet.Addr]int {
	b.t.Helper()
	if _, err := b.c.PortStats("h1", 5*time.Second); err != nil {
		b.t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[packet.Addr]int, len(b.reqs))
	for a, n := range b.reqs {
		out[a] = n
	}
	return out
}

// TestOneMetricReqPerWorkerPerTick: with the auto-scaler, the load balancer
// and the allocator all deployed, each tick sends each worker of an owned
// topology exactly one METRIC_REQ — a second tick asks again, whatever the
// wall clock says, and a request between ticks belongs to the tick before it.
func TestOneMetricReqPerWorkerPerTick(t *testing.T) {
	b := newStatsBed(t, Options{EnableQoS: true}, nil)
	b.chain("alpha", 1, 2, topology.SDNBalanced, topology.QoSBurstable)
	as := NewAutoScaler()
	as.AddPolicy(AutoScalePolicy{Topo: "alpha", Node: "split", ScaleUpQueue: 50, Max: 4})
	lb := NewLoadBalancer()
	lb.AddPolicy(AutoBalancePolicy{Topo: "alpha", Node: "split"})
	b.c.AddApp(as)
	b.c.AddApp(lb)
	b.c.AddApp(NewBandwidthAllocator(BandwidthConfig{LinkCapacityBps: 1 << 20}))

	for tick := 1; tick <= 2; tick++ {
		b.c.tick()
		b.c.RequestWorkerStats("alpha")
		got := b.sent()
		for w := uint32(1); w <= 4; w++ {
			if n := got[packet.WorkerAddr(1, w)]; n != tick {
				t.Errorf("worker %d was sent %d METRIC_REQs after %d tick(s), want %d", w, n, tick, tick)
			}
		}
		if len(got) != 4 {
			t.Errorf("METRIC_REQs went to %d addresses, want alpha's 4 workers: %v", len(got), got)
		}
	}
}

// TestHostSweepsUnaskedTopologies: with no app deployed the host itself
// sweeps an owned topology, once per statsSweepInterval rather than per tick.
func TestHostSweepsUnaskedTopologies(t *testing.T) {
	b := newStatsBed(t, Options{}, nil)
	b.chain("alpha", 1, 1, topology.Shuffle, "")
	b.c.tick()
	b.c.tick()
	if got := b.sent()[packet.WorkerAddr(1, 1)]; got != 1 {
		t.Fatalf("two ticks inside one sweep interval sent %d METRIC_REQs, want 1", got)
	}
	b.c.mu.Lock()
	b.c.topos["alpha"].statsAsked = time.Now().Add(-statsSweepInterval)
	b.c.mu.Unlock()
	b.c.tick()
	if got := b.sent()[packet.WorkerAddr(1, 1)]; got != 2 {
		t.Errorf("a tick one sweep interval later brought the count to %d, want 2", got)
	}
}

// TestNonOwnerRecordsButDoesNotSweep: a controller of a replicated control
// plane that does not own a topology sends it no METRIC_REQ, from the host
// or from an app, but records every METRIC_RESP it is shown.
func TestNonOwnerRecordsButDoesNotSweep(t *testing.T) {
	b := newStatsBed(t, Options{ID: "ctl-b"}, func(kv *coordinator.Store) {
		if _, _, err := coordinator.AcquireLease(kv, paths.SwitchMaster("h1"), "ctl-a", time.Hour, time.Now()); err != nil {
			t.Fatal(err)
		}
	})
	b.chain("alpha", 1, 1, topology.Shuffle, "")
	if b.c.OwnsTopology("alpha") {
		t.Fatal("test setup: ctl-b owns alpha although ctl-a holds h1's lease")
	}
	as := NewAutoScaler()
	as.AddPolicy(AutoScalePolicy{Topo: "alpha", Node: "split", ScaleUpQueue: 50, Max: 4})
	b.c.AddApp(as)
	b.c.AddApp(NewBandwidthAllocator(BandwidthConfig{}))

	b.c.tick()
	b.c.RequestWorkerStats("alpha")
	if got := b.sent(); len(got) != 0 {
		t.Errorf("a non-owner sent METRIC_REQs: %v", got)
	}
	b.resp(1, control.MetricResp{Worker: 2, Node: "split", QueueLen: 7})
	row, ok := b.c.WorkerStats("alpha")[2]
	if !ok || row.QueueLen != 7 || row.Host != "h1" {
		t.Errorf("non-owner's table has %+v (present %v), want the row it was shown", row, ok)
	}
}

// TestWorkerStatsExpire: a row whose METRIC_RESP is older than statsTTL is
// absent from WorkerStats and from the rows /api/v1/top serves.
func TestWorkerStatsExpire(t *testing.T) {
	b := newStatsBed(t, Options{}, nil)
	b.chain("alpha", 1, 1, topology.Shuffle, "")
	b.resp(1, control.MetricResp{Worker: 1, Node: "src"})
	b.resp(1, control.MetricResp{Worker: 2, Node: "split"})
	b.c.mu.Lock()
	stale := b.c.topos["alpha"].stats[2]
	stale.At = time.Now().Add(-statsTTL - time.Second)
	b.c.topos["alpha"].stats[2] = stale
	b.c.mu.Unlock()

	got := b.c.WorkerStats("alpha")
	if _, ok := got[1]; !ok || len(got) != 1 {
		t.Errorf("WorkerStats = %v, want only the fresh row of worker 1", got)
	}
	rows := NewMetricsCollector(b.c).Rows()
	if len(rows) != 1 || rows[0].Topo != "alpha" || rows[0].Worker != 1 {
		t.Errorf("collector rows = %+v, want only alpha/1", rows)
	}
}

// TestCollectorServesNewestRowAcrossControllers: the collector's table is the
// newest row per (topology, worker) over the running controllers, so one that
// stopped hearing METRIC_RESPs (a chaos outage) does not freeze it.
func TestCollectorServesNewestRowAcrossControllers(t *testing.T) {
	deaf, live := newStatsBed(t, Options{}, nil), newStatsBed(t, Options{}, nil)
	for _, b := range []*statsBed{deaf, live} {
		b.chain("alpha", 1, 1, topology.Shuffle, "")
		b.resp(1, control.MetricResp{Worker: 2, Node: "split", Processed: 10})
	}
	live.resp(1, control.MetricResp{Worker: 2, Node: "split", Processed: 20})

	m := NewMetricsCollector(deaf.c, live.c)
	rows := m.Rows()
	if len(rows) != 1 || rows[0].Processed != 20 {
		t.Errorf("rows = %+v, want the one alpha/2 row with the newer Processed 20", rows)
	}
	live.c.Stop()
	if rows := m.Rows(); len(rows) != 1 || rows[0].Processed != 10 {
		t.Errorf("rows after the fresher controller stopped = %+v, want the survivor's", rows)
	}
}

// TestAllocatorDemandPerTenant: two burstable tenants whose single workers
// are both ID 1 on one host, with lifetime counters far apart but the same
// +100 emitted in the tick, have equal demand and get equal rates.
func TestAllocatorDemandPerTenant(t *testing.T) {
	b := newStatsBed(t, Options{EnableQoS: true}, nil)
	for app, name := range map[uint16]string{1: "alpha", 2: "beta"} {
		l := &topology.Logical{
			App: app, Name: name, QoSClass: topology.QoSBurstable,
			Nodes: []topology.NodeSpec{{Name: "src", Logic: "l", Parallelism: 1, Source: true}},
		}
		p := &topology.Physical{
			App: app, Name: name, NextWorker: 2,
			Workers: []topology.Assignment{{Worker: 1, Node: "src", Host: "h1", Port: uint32(app)}},
		}
		_, _ = b.kv.Put(paths.Logical(name), l.Encode())
		_, _ = b.kv.Put(paths.Physical(name), p.Encode())
	}
	b.await("both topologies", func() bool {
		_, pa := b.c.Topology("alpha")
		_, pb := b.c.Topology("beta")
		return pa != nil && pb != nil
	})
	ba := NewBandwidthAllocator(BandwidthConfig{LinkCapacityBps: 1 << 20})
	b.c.AddApp(ba)

	b.resp(1, control.MetricResp{Worker: 1, Node: "src", Emitted: 1000})
	b.resp(2, control.MetricResp{Worker: 1, Node: "src", Emitted: 50000})
	ba.OnTick(b.c)
	b.resp(1, control.MetricResp{Worker: 1, Node: "src", Emitted: 1100})
	b.resp(2, control.MetricResp{Worker: 1, Node: "src", Emitted: 50100})
	ba.OnTick(b.c)

	rates := make(map[string]uint64)
	for _, row := range b.c.QoSStatus() {
		rates[row.Topology] = row.HostRates["h1"]
	}
	if rates["alpha"] != 1<<19 || rates["beta"] != 1<<19 {
		t.Errorf("equal per-tick demand gave alpha %d B/s, beta %d B/s; want %d each",
			rates["alpha"], rates["beta"], 1<<19)
	}
}

// recordingManager is a ManagerAPI that remembers SetParallelism calls.
type recordingManager struct {
	ManagerAPI
	mu    sync.Mutex
	calls []string
}

func (m *recordingManager) SetParallelism(topo, node string, _ int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls = append(m.calls, topo+"/"+node)
	return nil
}

// TestAutoScalerReadsOwnTopology: two topologies share node names and worker
// IDs; alpha's splitter is backlogged, beta's idle. Only alpha scales up.
func TestAutoScalerReadsOwnTopology(t *testing.T) {
	b := newStatsBed(t, Options{}, nil)
	b.chain("alpha", 1, 1, topology.Shuffle, "")
	b.chain("beta", 2, 1, topology.Shuffle, "")
	mgr := &recordingManager{}
	b.c.SetManager(mgr)
	as := NewAutoScaler()
	for _, name := range []string{"alpha", "beta"} {
		as.AddPolicy(AutoScalePolicy{Topo: name, Node: "split", ScaleUpQueue: 50, Max: 4})
	}
	b.c.AddApp(as)
	b.resp(2, control.MetricResp{Worker: 2, Node: "split", QueueLen: 0})
	b.resp(1, control.MetricResp{Worker: 2, Node: "split", QueueLen: 500})

	as.OnTick(b.c)
	if len(mgr.calls) != 1 || mgr.calls[0] != "alpha/split" {
		t.Errorf("scale-ups = %v, want only alpha/split", mgr.calls)
	}
}

// TestLoadBalancerReadsOwnTopology: same collision for the load balancer.
// An idle beta is left alone while alpha's straggler is visible, and when
// beta does get a straggler the weights come from beta's own queues.
func TestLoadBalancerReadsOwnTopology(t *testing.T) {
	b := newStatsBed(t, Options{}, nil)
	b.chain("alpha", 1, 2, topology.SDNBalanced, "")
	b.chain("beta", 2, 2, topology.SDNBalanced, "")
	lb := NewLoadBalancer()
	lb.AddPolicy(AutoBalancePolicy{Topo: "beta", Node: "split"})
	b.c.AddApp(lb)
	b.resp(2, control.MetricResp{Worker: 2, Node: "split", QueueLen: 0})
	b.resp(2, control.MetricResp{Worker: 3, Node: "split", QueueLen: 0})
	b.resp(1, control.MetricResp{Worker: 2, Node: "split", QueueLen: 500})
	b.resp(1, control.MetricResp{Worker: 3, Node: "split", QueueLen: 0})

	lb.OnTick(b.c)
	if n := lb.Applied(); n != 0 {
		t.Fatalf("idle beta was rebalanced %d time(s) from alpha's queues", n)
	}

	b.resp(2, control.MetricResp{Worker: 3, Node: "split", QueueLen: 400})
	lb.OnTick(b.c)
	b.c.mu.Lock()
	w2, w3 := b.c.topos["beta"].lbWeights[2], b.c.topos["beta"].lbWeights[3]
	alphaTouched := len(b.c.topos["alpha"].lbWeights) != 0
	b.c.mu.Unlock()
	if w2 != 8 || w3 != 1 || alphaTouched {
		t.Errorf("beta weights w2=%d w3=%d (want 8, 1), alpha touched: %v", w2, w3, alphaTouched)
	}
}
