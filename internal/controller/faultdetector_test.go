package controller

import (
	"testing"

	"typhoon/internal/coordinator"
	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/topology"
	"typhoon/internal/workload"
)

// fdTestController builds an unstarted controller whose cache already holds
// one topology view, so OnPortStatus can be driven directly.
func fdTestController(t *testing.T) (*Controller, *topology.Logical, *topology.Physical) {
	t.Helper()
	c, err := New(coordinator.NewStore(), Options{ID: "ctl-0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	b := topology.NewBuilder("fdtest", 7)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("split", workload.LogicSplitter, 2).ShuffleFrom("src")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := &topology.Physical{
		App: 7, Name: "fdtest", NextWorker: 4,
		Workers: []topology.Assignment{
			{Worker: 1, Node: "src", Index: 0, Host: "h1", Port: 1},
			{Worker: 2, Node: "split", Index: 0, Host: "h1", Port: 2},
			{Worker: 3, Node: "split", Index: 1, Host: "h2", Port: 1},
		},
	}
	c.mu.Lock()
	c.topos["fdtest"] = &topoState{
		logical: l, physical: p,
		installed: make(map[ruleKey]openflow.FlowMod),
		groups:    make(map[topology.WorkerID]uint32),
		ctlGen:    l.Generation,
	}
	c.mu.Unlock()
	return c, l, p
}

func TestFaultDetectorOnPortStatusDetectsWorkerLoss(t *testing.T) {
	c, l, _ := fdTestController(t)
	fd := NewFaultDetector()

	ev := openflow.PortStatus{
		Reason: openflow.PortDeleted,
		Addr:   packet.WorkerAddr(l.App, 2),
	}
	fd.OnPortStatus(c, "h1", ev)
	if got := fd.Detected(); got != 1 {
		t.Fatalf("Detected() = %d after port loss, want 1", got)
	}
	// The same victim's port vanishing again (e.g. a restart-then-crash)
	// is not a new failure.
	fd.OnPortStatus(c, "h1", ev)
	if got := fd.Detected(); got != 1 {
		t.Fatalf("Detected() = %d after duplicate event, want 1 (dedup)", got)
	}
}

func TestFaultDetectorOnPortStatusIgnoresNonFailures(t *testing.T) {
	c, l, _ := fdTestController(t)
	fd := NewFaultDetector()

	// Port additions and modifications are not failures.
	fd.OnPortStatus(c, "h1", openflow.PortStatus{
		Reason: openflow.PortAdded, Addr: packet.WorkerAddr(l.App, 2),
	})
	fd.OnPortStatus(c, "h1", openflow.PortStatus{
		Reason: openflow.PortModified, Addr: packet.WorkerAddr(l.App, 2),
	})
	// A deletion with no bound worker address (e.g. a tunnel port).
	fd.OnPortStatus(c, "h1", openflow.PortStatus{Reason: openflow.PortDeleted})
	// A deletion for an app the controller doesn't manage.
	fd.OnPortStatus(c, "h1", openflow.PortStatus{
		Reason: openflow.PortDeleted, Addr: packet.WorkerAddr(999, 2),
	})
	// A deletion for a worker no longer assigned (expected removal).
	fd.OnPortStatus(c, "h1", openflow.PortStatus{
		Reason: openflow.PortDeleted, Addr: packet.WorkerAddr(l.App, 42),
	})
	if got := fd.Detected(); got != 0 {
		t.Fatalf("Detected() = %d, want 0", got)
	}
}
