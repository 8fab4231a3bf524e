package controller

import (
	"fmt"
	"sync"

	"typhoon/internal/topology"
)

// LoadBalancer is the §4 SDN load-balancer app. Edges declared with the
// SDNBalanced policy are compiled into switch select groups; this app
// adjusts bucket weights — manually via SetWeights, or automatically from
// worker queue statistics so slow or straggling workers receive fewer
// tuples than round robin would give them.
type LoadBalancer struct {
	BaseApp

	mu      sync.Mutex
	auto    []AutoBalancePolicy
	applied int
}

// AutoBalancePolicy enables automatic rebalancing for one edge.
type AutoBalancePolicy struct {
	Topo string
	// Node is the downstream node whose instances are balanced.
	Node string
	// MaxWeight caps a bucket's weight.
	MaxWeight uint16
}

// NewLoadBalancer builds the app.
func NewLoadBalancer() *LoadBalancer {
	return &LoadBalancer{}
}

// Name implements App.
func (lb *LoadBalancer) Name() string { return "sdn-load-balancer" }

// AddPolicy enables automatic weight adjustment for a node.
func (lb *LoadBalancer) AddPolicy(p AutoBalancePolicy) {
	if p.MaxWeight == 0 {
		p.MaxWeight = 8
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.auto = append(lb.auto, p)
}

// Applied reports how many weight updates were pushed (tests).
func (lb *LoadBalancer) Applied() int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.applied
}

// SetWeights reweights the select groups feeding node via SDNBalanced
// edges. Weights become controller state (Controller.SetGroupWeights), so
// rule reconciliation re-applies rather than resets them.
func (lb *LoadBalancer) SetWeights(c *Controller, topoName, node string, weights map[topology.WorkerID]uint16) error {
	l, _ := c.Topology(topoName)
	if l == nil {
		return fmt.Errorf("loadbalancer: unknown topology %q", topoName)
	}
	balanced := false
	for _, e := range l.InEdges(node) {
		if e.Policy == topology.SDNBalanced {
			balanced = true
		}
	}
	if !balanced {
		return fmt.Errorf("loadbalancer: no SDN-balanced edges into node %q", node)
	}
	if err := c.SetGroupWeights(topoName, weights); err != nil {
		return err
	}
	lb.mu.Lock()
	lb.applied++
	lb.mu.Unlock()
	return nil
}

// OnTick implements App: poll metrics and rebalance per policy.
func (lb *LoadBalancer) OnTick(c *Controller) {
	lb.mu.Lock()
	policies := append([]AutoBalancePolicy(nil), lb.auto...)
	lb.mu.Unlock()
	for _, pol := range policies {
		if !c.OwnsTopology(pol.Topo) {
			continue // another controller owns this topology's balancing
		}
		l, p := c.Topology(pol.Topo)
		if l == nil {
			continue
		}
		c.RequestWorkerStats(pol.Topo)
		stats := c.WorkerStats(pol.Topo)
		instances := p.Instances(pol.Node)
		queues := make(map[topology.WorkerID]int, len(instances))
		for _, as := range instances {
			if mr, ok := stats[as.Worker]; ok {
				queues[as.Worker] = mr.QueueLen
			} else {
				queues[as.Worker] = -1
			}
		}
		weights, imbalanced := autoWeights(queues, pol.MaxWeight)
		if imbalanced {
			_ = lb.SetWeights(c, pol.Topo, pol.Node, weights)
		}
	}
}

// autoWeights computes select-group bucket weights from worker queue
// depths: weight is inverse to backlog, so the most backlogged worker
// (the straggler) gets 1 and a fully drained worker gets maxWeight. A
// queue depth of -1 marks a worker with no statistics yet; it keeps the
// neutral weight 1. The second result reports whether any backlog exists —
// with all queues empty there is nothing to rebalance.
func autoWeights(queues map[topology.WorkerID]int, maxWeight uint16) (map[topology.WorkerID]uint16, bool) {
	if maxWeight == 0 {
		maxWeight = 1
	}
	maxQ := 0
	for _, q := range queues {
		if q > maxQ {
			maxQ = q
		}
	}
	weights := make(map[topology.WorkerID]uint16, len(queues))
	for w, q := range queues {
		weights[w] = 1
		if q >= 0 && maxQ > 0 {
			weights[w] = uint16(1 + (int(maxWeight)-1)*(maxQ-q)/maxQ)
		}
	}
	return weights, maxQ > 0
}
