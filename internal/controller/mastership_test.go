package controller

import (
	"net"
	"sync"
	"testing"
	"time"

	"typhoon/internal/coordinator"
	"typhoon/internal/openflow"
	"typhoon/internal/paths"
	"typhoon/internal/topology"
)

func TestNewRequiresID(t *testing.T) {
	if c, err := New(coordinator.NewStore(), Options{}); err == nil {
		c.Stop()
		t.Fatal("New accepted an empty Options.ID")
	}
}

// TestMasterOnConnect: a lone controller whose tick never fires masters each
// switch as it connects. Three datapaths connect at once to a controller that
// already knows a topology spanning them; each hears ROLE_REQUEST{master,
// epoch 1} before its first FlowMod, and the controller masters all three
// within a second.
func TestMasterOnConnect(t *testing.T) {
	kv := coordinator.NewStore()
	hosts := []string{"h1", "h2", "h3"}
	l := &topology.Logical{
		App: 1, Name: "t",
		Nodes: []topology.NodeSpec{
			{Name: "src", Logic: "l", Parallelism: 1, Source: true},
			{Name: "mid", Logic: "l", Parallelism: 1},
			{Name: "sink", Logic: "l", Parallelism: 1},
		},
		Edges: []topology.EdgeSpec{
			{From: "src", To: "mid", Policy: topology.Shuffle},
			{From: "mid", To: "sink", Policy: topology.Global},
		},
	}
	p := &topology.Physical{App: 1, Name: "t", NextWorker: 4}
	for i, node := range []string{"src", "mid", "sink"} {
		p.Workers = append(p.Workers, topology.Assignment{
			Worker: topology.WorkerID(i + 1), Node: node, Host: hosts[i], Port: uint32(10 + i),
		})
	}
	_, _ = kv.Put(paths.Logical(l.Name), l.Encode())
	_, _ = kv.Put(paths.Physical(p.Name), p.Encode())

	c, err := New(kv, Options{ID: "ctl-0", TickInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	// What each datapath heard: the first ROLE_REQUEST, and whether a FlowMod
	// came before it.
	type heard struct {
		role       *openflow.RoleRequest
		flowMods   int
		modsBefore int
	}
	var mu sync.Mutex
	seen := make(map[string]*heard, len(hosts))
	go1 := make(chan struct{})
	var dialed sync.WaitGroup
	for i, host := range hosts {
		seen[host] = &heard{}
		dialed.Add(1)
		go func() {
			defer dialed.Done()
			<-go1
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
							DatapathID: uint64(i + 1), Host: host,
							Ports: []openflow.PortInfo{{No: 99, Name: "tun0"}},
						})
					case openflow.StatsRequest:
						_ = conn.SendXID(xid, openflow.StatsReply{Kind: m.Kind})
					case openflow.RoleRequest:
						mu.Lock()
						if seen[host].role == nil {
							seen[host].role = &m
						}
						mu.Unlock()
					case openflow.FlowMod:
						mu.Lock()
						h := seen[host]
						h.flowMods++
						if h.role == nil {
							h.modsBefore++
						}
						mu.Unlock()
					}
				}
			}()
		}()
	}
	close(go1)
	dialed.Wait()

	if !awaitCond(time.Second, func() bool {
		for _, h := range hosts {
			if !c.IsMaster(h) {
				return false
			}
		}
		return true
	}) {
		t.Fatal("the lone controller does not master all three switches a second after they connected")
	}
	if !awaitCond(5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, h := range seen {
			if h.flowMods == 0 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("some switch was never programmed")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, host := range hosts {
		h := seen[host]
		if h.role == nil || *h.role != (openflow.RoleRequest{Master: true, Epoch: 1}) {
			t.Errorf("%s: first ROLE_REQUEST %+v, want {Master:true Epoch:1}", host, h.role)
		}
		if h.modsBefore != 0 {
			t.Errorf("%s: %d FlowMod(s) arrived before the ROLE_REQUEST", host, h.modsBefore)
		}
	}
}
