package controller

import (
	"sync"
	"time"

	"typhoon/internal/control"
	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/topology"
)

// FaultDetector is the §4 fault-detector app: instead of waiting for
// heartbeat timeouts, it reacts to unexpected switch port removals by
// immediately rerouting traffic away from the dead worker (Fig 10b).
type FaultDetector struct {
	BaseApp

	mu sync.Mutex
	// dead tracks workers redirected away from, per topology, until a
	// newer physical generation resurrects or removes them.
	dead map[string]map[topology.WorkerID]bool
	// Detected counts reacted-to failures (experiments read it).
	detected int
}

// NewFaultDetector builds the app.
func NewFaultDetector() *FaultDetector {
	return &FaultDetector{dead: make(map[string]map[topology.WorkerID]bool)}
}

// Name implements App.
func (f *FaultDetector) Name() string { return "fault-detector" }

// Detected reports how many failures the app reacted to.
func (f *FaultDetector) Detected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.detected
}

// OnPortStatus implements App.
func (f *FaultDetector) OnPortStatus(c *Controller, host string, ev openflow.PortStatus) {
	if ev.Reason != openflow.PortDeleted {
		return
	}
	var zero packet.Addr
	if ev.Addr == zero {
		return
	}
	// Identify the victim from its data-plane address; snapshot the
	// topology views under the lock (SyncTopology swaps them).
	c.mu.Lock()
	var topoName string
	var l *topology.Logical
	var p *topology.Physical
	for name, cand := range c.topos {
		if cand.logical != nil && cand.logical.App == ev.Addr.App() {
			topoName, l, p = name, cand.logical, cand.physical
			break
		}
	}
	c.mu.Unlock()
	if l == nil || p == nil {
		return
	}
	victim := topology.WorkerID(ev.Addr.Worker())
	as := p.Worker(victim)
	if as == nil {
		return // expected removal: worker no longer assigned
	}
	f.mu.Lock()
	if f.dead[topoName] == nil {
		f.dead[topoName] = make(map[topology.WorkerID]bool)
	}
	alreadyDead := f.dead[topoName][victim]
	f.dead[topoName][victim] = true
	if !alreadyDead {
		f.detected++
	}
	f.mu.Unlock()

	// Proactively steer predecessors to the surviving instances, well
	// before any heartbeat timeout fires.
	for _, pred := range topology.Predecessors(l, p, as.Node) {
		routes := topology.RoutesFor(l, p, pred.Node)
		for i := range routes {
			routes[i].NextHops = without(routes[i].NextHops, victim)
		}
		_ = c.SendControlTuple(topoName, pred.Worker,
			control.Encode(control.KindRouting, control.Routing{Routes: routes}))
	}
}

func without(hops []topology.WorkerID, id topology.WorkerID) []topology.WorkerID {
	out := hops[:0:0]
	for _, h := range hops {
		if h != id {
			out = append(out, h)
		}
	}
	return out
}

// AutoScalePolicy configures the auto-scaler for one node.
type AutoScalePolicy struct {
	Topo string
	Node string
	// ScaleUpQueue triggers a scale-up when a worker's queue exceeds it.
	ScaleUpQueue int
	// ScaleDownQueue triggers a scale-down when every worker's queue is
	// below it (and parallelism > Min).
	ScaleDownQueue int
	Min, Max       int
	// Cooldown spaces scaling actions.
	Cooldown time.Duration
}

// AutoScaler is the §4 auto-scaler app: it reads the controller's worker
// statistics and initiates scale up/down through the streaming manager when
// queue levels cross thresholds (Fig 11).
type AutoScaler struct {
	BaseApp

	mu       sync.Mutex
	policies []AutoScalePolicy
	lastAct  map[string]time.Time
	scaleUps int
}

// NewAutoScaler builds the app.
func NewAutoScaler() *AutoScaler {
	return &AutoScaler{lastAct: make(map[string]time.Time)}
}

// Name implements App.
func (a *AutoScaler) Name() string { return "auto-scaler" }

// AddPolicy registers an auto-scaling policy.
func (a *AutoScaler) AddPolicy(p AutoScalePolicy) {
	if p.Cooldown <= 0 {
		p.Cooldown = 2 * time.Second
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.policies = append(a.policies, p)
}

// ScaleUps reports how many scale-up actions were initiated.
func (a *AutoScaler) ScaleUps() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.scaleUps
}

// OnTick implements App: request metrics and evaluate policies.
func (a *AutoScaler) OnTick(c *Controller) {
	a.mu.Lock()
	policies := append([]AutoScalePolicy(nil), a.policies...)
	a.mu.Unlock()

	for _, pol := range policies {
		if !c.OwnsTopology(pol.Topo) {
			continue // another controller owns this topology's scaling
		}
		l, p := c.Topology(pol.Topo)
		if l == nil {
			continue
		}
		c.RequestWorkerStats(pol.Topo)
		a.evaluate(c, pol, l, p)
	}
}

func (a *AutoScaler) evaluate(c *Controller, pol AutoScalePolicy, l *topology.Logical, p *topology.Physical) {
	mgr := c.Manager()
	if mgr == nil {
		return
	}
	node := l.Node(pol.Node)
	if node == nil {
		return
	}
	stats := c.WorkerStats(pol.Topo)
	a.mu.Lock()
	last := a.lastAct[pol.Topo+"/"+pol.Node]
	a.mu.Unlock()
	var maxQ, seen int
	for _, as := range p.Instances(pol.Node) {
		mr, ok := stats[as.Worker]
		if !ok {
			continue
		}
		seen++
		if mr.QueueLen > maxQ {
			maxQ = mr.QueueLen
		}
	}
	if seen == 0 || time.Since(last) < pol.Cooldown {
		return
	}
	par := node.Parallelism
	switch {
	case maxQ > pol.ScaleUpQueue && (pol.Max <= 0 || par < pol.Max):
		if err := mgr.SetParallelism(pol.Topo, pol.Node, par+1); err == nil {
			a.mu.Lock()
			a.scaleUps++
			a.lastAct[pol.Topo+"/"+pol.Node] = time.Now()
			a.mu.Unlock()
		}
	case seen == par && maxQ < pol.ScaleDownQueue && par > pol.Min && pol.Min > 0:
		if err := mgr.SetParallelism(pol.Topo, pol.Node, par-1); err == nil {
			a.mu.Lock()
			a.lastAct[pol.Topo+"/"+pol.Node] = time.Now()
			a.mu.Unlock()
		}
	}
}
