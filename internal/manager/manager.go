// Package manager implements the Typhoon streaming manager (§3.2): the
// Nimbus-equivalent that builds and schedules topologies, plus the dynamic
// topology manager that applies runtime reconfigurations — per-node
// parallelism changes, computation-logic swaps and routing-policy changes —
// by updating the coordinator's global state, from which worker agents and
// the SDN controller converge.
//
// It also runs the heartbeat fault monitor both systems share: workers
// whose heartbeats go stale are rescheduled onto another host.
package manager

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"typhoon/internal/ack"
	"typhoon/internal/coordinator"
	"typhoon/internal/paths"
	"typhoon/internal/scheduler"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// Options tunes a Manager.
type Options struct {
	// Scheduler places topologies; nil selects round robin, which the
	// paper uses on both systems for fair comparison (§6).
	Scheduler scheduler.Scheduler
	// HeartbeatTimeout is how long a worker may go without a heartbeat
	// before being rescheduled (Storm defaults to 30 s; tests shrink it).
	HeartbeatTimeout time.Duration
	// MonitorInterval is how often heartbeats are scanned; zero disables
	// the monitor.
	MonitorInterval time.Duration
}

// Manager is the streaming manager.
type Manager struct {
	kv   coordinator.KV
	opts Options

	mu sync.Mutex
	// missingSince tracks workers with absent/stale heartbeats.
	missingSince map[string]time.Time

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// New builds a manager.
func New(kv coordinator.KV, opts Options) *Manager {
	if opts.Scheduler == nil {
		opts.Scheduler = scheduler.RoundRobin{}
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 30 * time.Second
	}
	return &Manager{
		kv:           kv,
		opts:         opts,
		missingSince: make(map[string]time.Time),
		stopCh:       make(chan struct{}),
	}
}

// Start launches the heartbeat fault monitor (if configured).
func (m *Manager) Start() {
	if m.opts.MonitorInterval <= 0 {
		return
	}
	m.wg.Add(1)
	go m.monitorLoop()
}

// Stop halts the manager's background work.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() { close(m.stopCh) })
	m.wg.Wait()
}

// hosts reads the registered worker agents from the coordinator.
func (m *Manager) hosts() ([]scheduler.Host, error) {
	names, err := m.kv.Children(paths.Agents)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("manager: no worker agents registered")
	}
	out := make([]scheduler.Host, 0, len(names))
	for _, n := range names {
		out = append(out, scheduler.Host{Name: n})
	}
	return out, nil
}

// Submit validates, normalizes, schedules and stores a topology. The
// returned error is non-nil if a topology with the same name exists.
func (m *Manager) Submit(l *topology.Logical) error {
	norm := withAckers(l)
	if err := norm.Validate(); err != nil {
		return err
	}
	hosts, err := m.hosts()
	if err != nil {
		return err
	}
	phys, err := m.opts.Scheduler.Schedule(norm, hosts)
	if err != nil {
		return err
	}
	if err := m.kv.Create(paths.Logical(norm.Name), norm.Encode()); err != nil {
		return err
	}
	if err := m.kv.Create(paths.Physical(norm.Name), phys.Encode()); err != nil {
		_ = m.kv.Delete(paths.Logical(norm.Name))
		return err
	}
	return nil
}

// Kill removes a topology; agents stop its workers and the controller
// tears down its rules.
func (m *Manager) Kill(name string) error {
	if err := m.kv.Delete(paths.Logical(name)); err != nil {
		return err
	}
	_ = m.kv.Delete(paths.Physical(name))
	if kids, err := m.kv.Children(paths.HeartbeatPrefix(name)); err == nil {
		for _, k := range kids {
			_ = m.kv.Delete(paths.HeartbeatPrefix(name) + "/" + k)
		}
	}
	_ = m.kv.Delete(paths.NetReady(name))
	_ = m.kv.Delete(paths.Activated(name))
	_ = m.kv.Delete(paths.Paused(name))
	return nil
}

// Describe returns the stored logical and physical topologies.
func (m *Manager) Describe(name string) (*topology.Logical, *topology.Physical, error) {
	lraw, _, err := m.kv.Get(paths.Logical(name))
	if err != nil {
		return nil, nil, err
	}
	praw, _, err := m.kv.Get(paths.Physical(name))
	if err != nil {
		return nil, nil, err
	}
	l, err := topology.DecodeLogical(lraw)
	if err != nil {
		return nil, nil, err
	}
	p, err := topology.DecodePhysical(praw)
	if err != nil {
		return nil, nil, err
	}
	return l, p, nil
}

// WaitReady blocks until the SDN controller reports rules installed for
// the topology's current generation, or the timeout elapses.
func (m *Manager) WaitReady(name string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return m.WaitReadyCtx(ctx, name)
}

// WaitReadyCtx is WaitReady driven by a context: it returns nil once the
// controller's netready marker reaches the current generation, or an error
// wrapping ctx's error or coordinator.ErrClosed, whichever ends it first.
func (m *Manager) WaitReadyCtx(ctx context.Context, name string) error {
	err := coordinator.Await(ctx, m.kv, paths.NetReady(name), func() bool {
		l, _, err := m.Describe(name)
		raw, _, _ := m.kv.Get(paths.NetReady(name))
		gen, perr := strconv.ParseInt(string(raw), 10, 64)
		return err == nil && perr == nil && gen >= l.Generation
	})
	if err != nil {
		return fmt.Errorf("manager: topology %s not ready: %w", name, err)
	}
	return nil
}

// reconfigure applies fn to the stored logical topology, bumps its
// generation, reschedules, and stores both states atomically with respect
// to other manager operations.
func (m *Manager) reconfigure(name string, fn func(l *topology.Logical, p *topology.Physical) (*topology.Physical, error)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for attempt := 0; attempt < 10; attempt++ {
		lraw, lver, err := m.kv.Get(paths.Logical(name))
		if err != nil {
			return err
		}
		praw, pver, err := m.kv.Get(paths.Physical(name))
		if err != nil {
			return err
		}
		l, err := topology.DecodeLogical(lraw)
		if err != nil {
			return err
		}
		p, err := topology.DecodePhysical(praw)
		if err != nil {
			return err
		}
		l.Generation++
		prev := p
		newPhys, err := fn(l, prev)
		if err != nil {
			return err
		}
		if err := l.Validate(); err != nil {
			return err
		}
		newPhys.Generation = l.Generation
		if _, err := m.kv.CompareAndSet(paths.Logical(name), l.Encode(), lver); err != nil {
			if err == coordinator.ErrBadVersion {
				continue
			}
			return err
		}
		if _, err := m.kv.CompareAndSet(paths.Physical(name), newPhys.Encode(), pver); err != nil {
			if err == coordinator.ErrBadVersion {
				// Agents raced a port update in: merge by retrying the
				// physical write with fresh ports for surviving workers.
				praw2, pver2, gerr := m.kv.Get(paths.Physical(name))
				if gerr != nil {
					return gerr
				}
				cur, derr := topology.DecodePhysical(praw2)
				if derr != nil {
					return derr
				}
				for i := range newPhys.Workers {
					if as := cur.Worker(newPhys.Workers[i].Worker); as != nil && newPhys.Workers[i].Port == as.Port {
						continue
					} else if as != nil && newPhys.Workers[i].Host == as.Host {
						newPhys.Workers[i].Port = as.Port
					}
				}
				if _, err2 := m.kv.CompareAndSet(paths.Physical(name), newPhys.Encode(), pver2); err2 != nil {
					continue
				}
			} else {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("manager: reconfigure: too many conflicts")
}

// SetParallelism changes a node's parallelism at runtime (per-node
// parallelism reconfiguration of §3.2). It implements the controller's
// ManagerAPI for the auto-scaler.
func (m *Manager) SetParallelism(name, node string, parallelism int) error {
	if parallelism < 1 {
		return fmt.Errorf("manager: parallelism must be >= 1")
	}
	return m.reconfigure(name, func(l *topology.Logical, p *topology.Physical) (*topology.Physical, error) {
		spec := l.Node(node)
		if spec == nil {
			return nil, fmt.Errorf("manager: unknown node %q", node)
		}
		spec.Parallelism = parallelism
		hosts, err := m.hosts()
		if err != nil {
			return nil, err
		}
		return m.opts.Scheduler.Reschedule(l, p, hosts)
	})
}

// SwapLogic replaces a node's computation logic at runtime (§6.2 "runtime
// update on computation logic"): fresh workers with the new logic are
// launched, wired in and the old instances are killed — without restarting
// the topology.
func (m *Manager) SwapLogic(name, node, newLogic string) error {
	return m.reconfigure(name, func(l *topology.Logical, p *topology.Physical) (*topology.Physical, error) {
		spec := l.Node(node)
		if spec == nil {
			return nil, fmt.Errorf("manager: unknown node %q", node)
		}
		spec.Logic = newLogic
		// Drop the node's instances from the previous physical topology
		// so the scheduler allocates brand-new workers for the new logic.
		trimmed := p.Clone()
		kept := trimmed.Workers[:0]
		for _, as := range trimmed.Workers {
			if as.Node != node {
				kept = append(kept, as)
			}
		}
		// Zero the compacted tail so dropped assignments (and their
		// strings) don't linger in the backing array.
		clear(trimmed.Workers[len(kept):])
		trimmed.Workers = kept
		hosts, err := m.hosts()
		if err != nil {
			return nil, err
		}
		return m.opts.Scheduler.Reschedule(l, trimmed, hosts)
	})
}

// SetRoutingPolicy changes an edge's routing policy (and hash fields) at
// runtime (routing-policy reconfiguration of §3.2).
func (m *Manager) SetRoutingPolicy(name, from, to string, policy topology.RoutingPolicy, hashFields []int) error {
	return m.reconfigure(name, func(l *topology.Logical, p *topology.Physical) (*topology.Physical, error) {
		found := false
		for i := range l.Edges {
			if l.Edges[i].From == from && l.Edges[i].To == to {
				l.Edges[i].Policy = policy
				l.Edges[i].HashFields = hashFields
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("manager: no edge %s->%s", from, to)
		}
		return p.Clone(), nil
	})
}

// AddDetachedNode adds an edgeless node pinned to a host (used by the live
// debugger to deploy debug workers). It implements controller.ManagerAPI.
func (m *Manager) AddDetachedNode(name string, spec topology.NodeSpec, host string) error {
	if spec.Parallelism < 1 {
		spec.Parallelism = 1
	}
	return m.reconfigure(name, func(l *topology.Logical, p *topology.Physical) (*topology.Physical, error) {
		if l.Node(spec.Name) != nil {
			return nil, fmt.Errorf("manager: node %q exists", spec.Name)
		}
		l.Nodes = append(l.Nodes, spec)
		out := p.Clone()
		for i := 0; i < spec.Parallelism; i++ {
			out.Workers = append(out.Workers, topology.Assignment{
				Worker: out.NextWorker,
				Node:   spec.Name,
				Index:  i,
				Host:   host,
			})
			out.NextWorker++
		}
		return out, nil
	})
}

// RemoveNode removes a node previously added with AddDetachedNode. It
// implements controller.ManagerAPI.
func (m *Manager) RemoveNode(name, node string) error {
	return m.reconfigure(name, func(l *topology.Logical, p *topology.Physical) (*topology.Physical, error) {
		idx := -1
		for i := range l.Nodes {
			if l.Nodes[i].Name == node {
				idx = i
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("manager: unknown node %q", node)
		}
		for _, e := range l.Edges {
			if e.From == node || e.To == node {
				return nil, fmt.Errorf("manager: node %q has edges; reconfigure them first", node)
			}
		}
		l.Nodes = append(l.Nodes[:idx], l.Nodes[idx+1:]...)
		out := p.Clone()
		kept := out.Workers[:0]
		for _, as := range out.Workers {
			if as.Node != node {
				kept = append(kept, as)
			}
		}
		// Zero the compacted tail, as in SwapLogic.
		clear(out.Workers[len(kept):])
		out.Workers = kept
		return out, nil
	})
}

// monitorLoop is the heartbeat fault monitor: workers with stale or
// missing heartbeats are rescheduled onto a different host.
func (m *Manager) monitorLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.opts.MonitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-ticker.C:
			m.scanHeartbeats()
		}
	}
}

func (m *Manager) scanHeartbeats() {
	names, err := m.kv.Children(paths.Topologies)
	if err != nil {
		return
	}
	now := time.Now()
	for _, name := range names {
		_, p, err := m.Describe(name)
		if err != nil {
			continue
		}
		for _, as := range p.Workers {
			key := name + "/" + strconv.FormatUint(uint64(as.Worker), 10)
			raw, _, err := m.kv.Get(paths.Heartbeat(name, as.Worker))
			fresh := false
			if err == nil {
				if ts, perr := strconv.ParseInt(string(raw), 10, 64); perr == nil {
					fresh = now.Sub(time.Unix(0, ts)) < m.opts.HeartbeatTimeout
				}
			}
			m.mu.Lock()
			if fresh {
				delete(m.missingSince, key)
				m.mu.Unlock()
				continue
			}
			first, seen := m.missingSince[key]
			if !seen {
				m.missingSince[key] = now
				m.mu.Unlock()
				continue
			}
			expired := now.Sub(first) >= m.opts.HeartbeatTimeout
			if expired {
				delete(m.missingSince, key)
			}
			m.mu.Unlock()
			if expired {
				m.rescheduleWorker(name, as.Worker)
			}
		}
	}
}

// rescheduleWorker moves one dead worker to a different host, clearing its
// port so the new agent re-attaches it.
func (m *Manager) rescheduleWorker(name string, id topology.WorkerID) {
	hosts, err := m.hosts()
	if err != nil || len(hosts) < 2 {
		return
	}
	_ = m.reconfigure(name, func(l *topology.Logical, p *topology.Physical) (*topology.Physical, error) {
		out := p.Clone()
		as := out.Worker(id)
		if as == nil {
			return nil, fmt.Errorf("manager: worker %d gone", id)
		}
		for i, h := range hosts {
			if h.Name == as.Host {
				as.Host = hosts[(i+1)%len(hosts)].Name
				break
			}
		}
		as.Port = 0
		return out, nil
	})
}

// withAckers wires guaranteed processing into a topology: an acker node,
// ack edges from every application node, and completion edges back to the
// sources (the acker-worker arrangement of §6.1).
func withAckers(l *topology.Logical) *topology.Logical {
	out := l.Clone()
	if out.Ackers <= 0 {
		return out
	}
	appNodes := append([]topology.NodeSpec(nil), out.Nodes...)
	out.Nodes = append(out.Nodes, topology.NodeSpec{
		Name:        ack.NodeName,
		Logic:       ack.LogicName,
		Parallelism: out.Ackers,
	})
	for _, n := range appNodes {
		out.Edges = append(out.Edges, topology.EdgeSpec{
			From: n.Name, To: ack.NodeName,
			Policy: topology.Fields, HashFields: []int{1},
			Stream: tuple.AckStream,
		})
	}
	for _, n := range appNodes {
		if n.Source {
			out.Edges = append(out.Edges, topology.EdgeSpec{
				From: ack.NodeName, To: n.Name,
				Policy: topology.Direct,
				Stream: tuple.CompleteStream,
			})
		}
	}
	return out
}

// SetQoS reassigns a running topology's rate class and configured
// bandwidth (bytes/sec). The generation bump rides the standard
// reconfiguration path, so every SDN controller recompiles the topology's
// rules with the new class queue and meter treatment on its next sync.
func (m *Manager) SetQoS(name, class string, rateBps uint64) error {
	if !topology.ValidQoSClass(class) {
		return fmt.Errorf("manager: unknown QoS class %q", class)
	}
	return m.reconfigure(name, func(l *topology.Logical, p *topology.Physical) (*topology.Physical, error) {
		l.QoSClass = class
		l.QoSRateBps = rateBps
		return p, nil
	})
}
