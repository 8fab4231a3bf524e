package controller

import (
	"context"
	"fmt"
	"sync"
	"time"

	"typhoon/internal/coordinator"
	"typhoon/internal/paths"
	"typhoon/internal/topology"
)

// DebugNodePrefix names detached debug nodes added by the live debugger.
const DebugNodePrefix = "__debug"

// LiveDebugger is the §4 live-debugger app: it dynamically deploys a debug
// worker next to a running topology and mirrors a tapped worker's egress
// frames to it with packet-mirroring rules — no extra application-level
// serialization, so the pipeline's throughput is unaffected (Fig 12,
// Table 5).
//
// The mirror itself is controller state (Controller.AddMirror), so it
// survives rule reconciliation and topology reconfiguration; Attach and
// Detach manage the debug worker's lifecycle around it.
type LiveDebugger struct {
	BaseApp

	mu   sync.Mutex
	taps map[string]string // "topo/worker" -> debug node name
}

// NewLiveDebugger builds the app.
func NewLiveDebugger() *LiveDebugger {
	return &LiveDebugger{taps: make(map[string]string)}
}

// Name implements App.
func (d *LiveDebugger) Name() string { return "live-debugger" }

// Attach deploys a debug worker with the given logic on the host of the
// tapped worker and mirrors that worker's egress rules to it. It returns
// the debug node's name.
func (d *LiveDebugger) Attach(c *Controller, topoName string, src topology.WorkerID, debugLogic string) (string, error) {
	mgr := c.Manager()
	if mgr == nil {
		return "", fmt.Errorf("debugger: no manager attached")
	}
	l, p := c.Topology(topoName)
	if l == nil {
		return "", fmt.Errorf("debugger: unknown topology %q", topoName)
	}
	as := p.Worker(src)
	if as == nil {
		return "", fmt.Errorf("debugger: unknown worker %d", src)
	}
	debugNode := fmt.Sprintf("%s-%d", DebugNodePrefix, src)
	err := mgr.AddDetachedNode(topoName, topology.NodeSpec{
		Name:        debugNode,
		Logic:       debugLogic,
		Parallelism: 1,
	}, as.Host)
	if err != nil {
		return "", err
	}
	// Wait for the debug worker's switch port, which its agent writes into
	// the stored physical topology.
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	var debugPort uint32
	err = coordinator.Await(ctx, c.kv, paths.Physical(topoName), func() bool {
		raw, _, _ := c.kv.Get(paths.Physical(topoName))
		cur, err := topology.DecodePhysical(raw)
		if err != nil {
			return false
		}
		for _, cand := range cur.Instances(debugNode) {
			if cand.Port != 0 {
				debugPort = cand.Port
			}
		}
		return debugPort != 0
	})
	if err != nil {
		_ = mgr.RemoveNode(topoName, debugNode)
		return "", fmt.Errorf("debugger: debug worker did not attach: %w", err)
	}
	if err := c.AddMirror(topoName, src, debugPort); err != nil {
		_ = mgr.RemoveNode(topoName, debugNode)
		return "", err
	}
	d.mu.Lock()
	d.taps[tapKey(topoName, src)] = debugNode
	d.mu.Unlock()
	return debugNode, nil
}

// Detach removes the mirror rules and the debug worker.
func (d *LiveDebugger) Detach(c *Controller, topoName string, src topology.WorkerID) error {
	d.mu.Lock()
	debugNode, ok := d.taps[tapKey(topoName, src)]
	delete(d.taps, tapKey(topoName, src))
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("debugger: no tap for worker %d", src)
	}
	c.RemoveMirror(topoName, src)
	if mgr := c.Manager(); mgr != nil {
		return mgr.RemoveNode(topoName, debugNode)
	}
	return nil
}

func tapKey(topo string, id topology.WorkerID) string {
	return fmt.Sprintf("%s/%d", topo, id)
}
