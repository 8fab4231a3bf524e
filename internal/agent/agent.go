// Package agent implements the per-host worker agent: it watches the
// coordinator for physical-topology assignments, launches and kills workers
// on its host, attaches them to the host's SDN switch (Typhoon mode) or the
// worker-level TCP fabric (Storm baseline mode), reports worker heartbeats,
// and performs Storm-style local restarts when a worker crashes.
package agent

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"typhoon/internal/coordinator"
	"typhoon/internal/packet"
	"typhoon/internal/paths"
	"typhoon/internal/storm"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/worker"
)

// Mode selects the transport fabric the agent attaches workers to.
type Mode int

// Agent modes.
const (
	// ModeSDN attaches workers to the host's software SDN switch
	// (Typhoon).
	ModeSDN Mode = iota
	// ModeStorm attaches workers to worker-level TCP connections
	// (baseline).
	ModeStorm
)

// Options configures an Agent.
type Options struct {
	Host string
	Mode Mode
	KV   coordinator.KV
	// Switch is required in ModeSDN.
	Switch *switchfabric.Switch
	// StormNet is required in ModeStorm.
	StormNet *storm.Network
	// Env is handed to every worker's computation logic.
	Env *worker.SharedEnv
	// HeartbeatInterval is how often worker heartbeats are written.
	HeartbeatInterval time.Duration
	// DrainDelay is how long a worker keeps running after its assignment
	// disappears, letting predecessors reroute and in-flight tuples drain
	// (the stable-update procedure of §3.5).
	DrainDelay time.Duration
	// RestartDelay spaces Storm-style local restarts of crashed workers.
	// It is the base delay: consecutive quick crashes back off
	// exponentially (up to 64×), so a crash-looping worker's heartbeats
	// go stale and the manager can reschedule it elsewhere.
	RestartDelay time.Duration
	// DefaultBatchSize is the initial I/O batch size for workers.
	DefaultBatchSize int
	// DefaultFlushDeadline is the initial bound on how long workers let
	// emitted tuples sit staged in their transport; zero selects
	// worker.DefaultFlushDeadline, negative disables.
	DefaultFlushDeadline time.Duration
	// AckTimeout configures source replay when acking is enabled.
	AckTimeout time.Duration
	// OnWorkerCrash, when set, observes crashes (tests, fault stats).
	OnWorkerCrash func(topo string, id topology.WorkerID, err error)
	// FrameSampler, when set, selects emitted frames to carry a tuple-path
	// trace annex (SDN mode; typically the host's *observe.Sampler).
	FrameSampler worker.FrameSampler
	// TraceSink, when set, receives completed trace annexes extracted by
	// this host's worker transports (typically observe.TraceLog.Record).
	TraceSink func(packet.TraceAnnex)
}

// Info is the agent registration record kept in the coordinator
// (hostname and port usage, Table 1's worker-agent row).
type Info struct {
	Host      string `json:"host"`
	Mode      string `json:"mode"`
	UsedPorts int    `json:"usedPorts"`
}

type running struct {
	w       *worker.Worker
	port    *switchfabric.Port
	topo    string
	node    string
	logic   string
	started time.Time
	crashed bool
	// draining marks workers whose assignment disappeared.
	draining bool
}

// Agent is one per-host worker agent.
type Agent struct {
	opts Options

	// batchSize and flushDeadline are the live batching defaults applied to
	// newly launched workers; /api/v1/batch retunes them alongside the
	// control-tuple broadcast to running workers, so restarts and rescales
	// inherit the tuned values.
	batchSize     atomic.Int64
	flushDeadline atomic.Int64

	mu      sync.Mutex
	workers map[string]map[topology.WorkerID]*running // topo -> id -> worker
	// crashStreaks counts consecutive quick crashes per topo/worker for
	// restart backoff; a healthy run (uptime ≥ 10×RestartDelay) resets it.
	crashStreaks map[string]int
	stopped      bool

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// New builds an agent.
func New(opts Options) (*Agent, error) {
	if opts.Host == "" || opts.KV == nil {
		return nil, fmt.Errorf("agent: host and KV are required")
	}
	if opts.Mode == ModeSDN && opts.Switch == nil {
		return nil, fmt.Errorf("agent: ModeSDN requires a switch")
	}
	if opts.Mode == ModeStorm && opts.StormNet == nil {
		return nil, fmt.Errorf("agent: ModeStorm requires a storm network")
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 500 * time.Millisecond
	}
	if opts.DrainDelay <= 0 {
		opts.DrainDelay = 250 * time.Millisecond
	}
	if opts.RestartDelay <= 0 {
		opts.RestartDelay = 500 * time.Millisecond
	}
	a := &Agent{
		opts:         opts,
		crashStreaks: make(map[string]int),
		workers:      make(map[string]map[topology.WorkerID]*running),
		stopCh:       make(chan struct{}),
	}
	a.batchSize.Store(int64(opts.DefaultBatchSize))
	a.flushDeadline.Store(int64(opts.DefaultFlushDeadline))
	return a, nil
}

// BatchDefaults reports the live batching defaults applied to newly
// launched workers (size, staging deadline).
func (a *Agent) BatchDefaults() (int, time.Duration) {
	return int(a.batchSize.Load()), time.Duration(a.flushDeadline.Load())
}

// SetBatchDefaults retunes the defaults for future worker launches. size <=
// 0 and deadline == 0 leave the respective knob unchanged; a negative
// deadline disables the bounded staging wait.
func (a *Agent) SetBatchDefaults(size int, deadline time.Duration) {
	if size > 0 {
		a.batchSize.Store(int64(size))
	}
	if deadline != 0 {
		a.flushDeadline.Store(int64(deadline))
	}
}

// EachWorker calls fn for every live (non-crashed) worker on this host. The
// callback runs outside the agent lock, against a snapshot.
func (a *Agent) EachWorker(fn func(topo string, id topology.WorkerID, w *worker.Worker)) {
	type ent struct {
		topo string
		id   topology.WorkerID
		w    *worker.Worker
	}
	a.mu.Lock()
	var snap []ent
	for topo, m := range a.workers {
		for id, r := range m {
			if !r.crashed {
				snap = append(snap, ent{topo, id, r.w})
			}
		}
	}
	a.mu.Unlock()
	for _, e := range snap {
		fn(e.topo, e.id, e.w)
	}
}

// Host returns the agent's host name.
func (a *Agent) Host() string { return a.opts.Host }

// Start registers the agent and begins watching for assignments.
func (a *Agent) Start() error {
	mode := "sdn"
	if a.opts.Mode == ModeStorm {
		mode = "storm"
	}
	info, _ := json.Marshal(Info{Host: a.opts.Host, Mode: mode})
	if _, err := a.opts.KV.Put(paths.Agent(a.opts.Host), info); err != nil {
		return err
	}
	events, cancel, err := a.opts.KV.Watch(paths.Topologies)
	if err != nil {
		return err
	}
	statusEvents, statusCancel, err := a.opts.KV.Watch(paths.Status)
	if err != nil {
		cancel()
		return err
	}
	a.wg.Add(3)
	go a.watchLoop(events, cancel)
	go a.statusLoop(statusEvents, statusCancel)
	go a.heartbeatLoop()
	return a.syncAll()
}

// Stop kills all workers and halts the agent.
func (a *Agent) Stop() {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	a.stopped = true
	a.mu.Unlock()
	close(a.stopCh)
	a.wg.Wait()
	a.mu.Lock()
	var all []*running
	for _, m := range a.workers {
		for _, r := range m {
			all = append(all, r)
		}
	}
	a.workers = make(map[string]map[topology.WorkerID]*running)
	a.mu.Unlock()
	for _, r := range all {
		a.stopWorker(r)
	}
}

// WorkerCount reports live (non-crashed) workers across all topologies on
// this host — the agent's row in the observability registry.
func (a *Agent) WorkerCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, m := range a.workers {
		for _, r := range m {
			if !r.crashed {
				n++
			}
		}
	}
	return n
}

// RunningWorkers reports the live worker IDs for a topology (tests).
func (a *Agent) RunningWorkers(topo string) []topology.WorkerID {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []topology.WorkerID
	for id, r := range a.workers[topo] {
		if !r.crashed {
			out = append(out, id)
		}
	}
	return out
}

// Worker returns the running worker with the given ID, or nil (tests and
// in-process experiments).
func (a *Agent) Worker(topo string, id topology.WorkerID) *worker.Worker {
	a.mu.Lock()
	defer a.mu.Unlock()
	if r := a.workers[topo][id]; r != nil {
		return r.w
	}
	return nil
}

// DropWorkerPort removes a running worker's switch port out from under it
// (chaos port-down fault). The removal emits the PortStatus event of §4
// for the fault detector, and the worker's transport collapses beneath it,
// taking the ordinary crash-restart path.
func (a *Agent) DropWorkerPort(topo string, id topology.WorkerID) error {
	if a.opts.Mode != ModeSDN {
		return fmt.Errorf("agent: port faults need the SDN data plane")
	}
	a.mu.Lock()
	r := a.workers[topo][id]
	var port *switchfabric.Port
	if r != nil && !r.crashed {
		port = r.port
	}
	a.mu.Unlock()
	if port == nil {
		return fmt.Errorf("agent: worker %s/%d has no live port on %s", topo, id, a.opts.Host)
	}
	return a.opts.Switch.RemovePort(port.No())
}

func (a *Agent) watchLoop(events <-chan coordinator.Event, cancel func()) {
	defer a.wg.Done()
	defer cancel()
	for {
		select {
		case <-a.stopCh:
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			// Any physical-topology change triggers a re-sync of that
			// topology; the event stream is advisory (drop-oldest), so
			// state is always re-read from the coordinator.
			if name, kind, ok := paths.SplitTopology(ev.Path); ok && kind == "physical" {
				a.syncTopology(name)
			}
		}
	}
}

// statusLoop activates baseline source workers when the manager marks a
// topology activated.
func (a *Agent) statusLoop(events <-chan coordinator.Event, cancel func()) {
	defer a.wg.Done()
	defer cancel()
	for {
		select {
		case <-a.stopCh:
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if ev.Type == coordinator.EventDeleted || !strings.HasSuffix(ev.Path, "/activated") {
				continue
			}
			name := strings.TrimSuffix(strings.TrimPrefix(ev.Path, paths.Status+"/"), "/activated")
			a.mu.Lock()
			var ws []*worker.Worker
			for _, r := range a.workers[name] {
				if !r.crashed {
					ws = append(ws, r.w)
				}
			}
			a.mu.Unlock()
			for _, w := range ws {
				w.Activate()
			}
		}
	}
}

func (a *Agent) syncAll() error {
	names, err := a.opts.KV.Children(paths.Topologies)
	if err != nil {
		return err
	}
	for _, n := range names {
		a.syncTopology(n)
	}
	return nil
}

// syncTopology reconciles this host's workers with the stored assignment.
func (a *Agent) syncTopology(name string) {
	lraw, _, lerr := a.opts.KV.Get(paths.Logical(name))
	praw, _, perr := a.opts.KV.Get(paths.Physical(name))
	if lerr != nil || perr != nil {
		// Topology gone: kill everything we run for it.
		a.killTopology(name)
		return
	}
	l, err := topology.DecodeLogical(lraw)
	if err != nil {
		return
	}
	p, err := topology.DecodePhysical(praw)
	if err != nil {
		return
	}

	desired := make(map[topology.WorkerID]topology.Assignment)
	for _, as := range p.Workers {
		if as.Host == a.opts.Host {
			desired[as.Worker] = as
		}
	}

	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return
	}
	cur := a.workers[name]
	if cur == nil {
		cur = make(map[topology.WorkerID]*running)
		a.workers[name] = cur
	}
	var toStart []topology.Assignment
	var toDrain []*running
	for id, as := range desired {
		if r, ok := cur[id]; !ok || r.crashed {
			toStart = append(toStart, as)
		}
	}
	for id, r := range cur {
		if _, ok := desired[id]; !ok && !r.draining {
			r.draining = true
			toDrain = append(toDrain, r)
		}
	}
	a.mu.Unlock()

	for _, as := range toStart {
		if err := a.launch(l, p, as); err != nil {
			continue
		}
	}
	for _, r := range toDrain {
		a.wg.Add(1)
		go a.drainAndStop(name, r)
	}
}

func (a *Agent) killTopology(name string) {
	a.mu.Lock()
	m := a.workers[name]
	delete(a.workers, name)
	a.mu.Unlock()
	for _, r := range m {
		a.stopWorker(r)
	}
}

// launch starts one assigned worker on this host.
func (a *Agent) launch(l *topology.Logical, p *topology.Physical, as topology.Assignment) error {
	node := l.Node(as.Node)
	if node == nil {
		return fmt.Errorf("agent: assignment references unknown node %q", as.Node)
	}
	batchSize, flushDeadline := a.BatchDefaults()
	cfg := worker.Config{
		App:           l.App,
		ID:            as.Worker,
		Node:          as.Node,
		Index:         as.Index,
		Logic:         node.Logic,
		Source:        node.Source,
		Routes:        topology.RoutesFor(l, p, as.Node),
		Acking:        l.Ackers > 0,
		FlushInterval: flushDeadline,
		AckTimeout:    a.opts.AckTimeout,
		Env:           a.opts.Env,
	}
	for _, e := range l.InEdges(as.Node) {
		cfg.Subscriptions = append(cfg.Subscriptions, e.Stream)
	}
	var tr worker.Transport
	var port *switchfabric.Port
	switch a.opts.Mode {
	case ModeSDN:
		// Sources wait for the controller's ACTIVATE after rules exist.
		cfg.StartInactive = node.Source
		pt, err := a.opts.Switch.AddPort("w"+strconv.FormatUint(uint64(as.Worker), 10),
			packet.WorkerAddr(l.App, uint32(as.Worker)))
		if err != nil {
			return err
		}
		port = pt
		tr = worker.NewSDNTransport(l.App, as.Worker, pt, worker.SDNTransportConfig{
			BatchSize: batchSize,
			Sampler:   a.opts.FrameSampler,
			TraceSink: a.opts.TraceSink,
		})
		if err := a.publishPort(l.Name, as.Worker, pt.No()); err != nil {
			a.opts.Switch.RemovePort(pt.No())
			return err
		}
	case ModeStorm:
		// Baseline sources stay throttled until the topology is
		// activated, so startup ordering cannot lose tuples.
		if node.Source {
			if _, _, err := a.opts.KV.Get(paths.Activated(l.Name)); err != nil {
				cfg.StartInactive = true
			}
		}
		t, err := storm.Listen(as.Worker, a.opts.StormNet)
		if err != nil {
			return err
		}
		tr = t
	}

	topoName := l.Name
	cfg.OnExit = func(id topology.WorkerID, err error) {
		if err == nil {
			return
		}
		a.handleCrash(topoName, id, err)
	}
	w, err := worker.New(cfg, tr)
	if err != nil {
		if port != nil {
			a.opts.Switch.RemovePort(port.No())
		}
		_ = tr.Close()
		return err
	}
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		if port != nil {
			a.opts.Switch.RemovePort(port.No())
		}
		_ = tr.Close()
		return fmt.Errorf("agent: stopped")
	}
	m := a.workers[topoName]
	if m == nil {
		m = make(map[topology.WorkerID]*running)
		a.workers[topoName] = m
	}
	m[as.Worker] = &running{
		w: w, port: port, topo: topoName, node: as.Node,
		logic: node.Logic, started: time.Now(),
	}
	a.mu.Unlock()
	w.Start()
	return nil
}

// publishPort CAS-updates the stored physical topology with the switch
// port this host bound for a worker, so the controller can program rules.
func (a *Agent) publishPort(name string, id topology.WorkerID, portNo uint32) error {
	for attempt := 0; attempt < 20; attempt++ {
		raw, ver, err := a.opts.KV.Get(paths.Physical(name))
		if err != nil {
			return err
		}
		p, err := topology.DecodePhysical(raw)
		if err != nil {
			return err
		}
		as := p.Worker(id)
		if as == nil {
			return fmt.Errorf("agent: worker %d vanished from physical topology", id)
		}
		as.Port = portNo
		if _, err := a.opts.KV.CompareAndSet(paths.Physical(name), p.Encode(), ver); err == nil {
			return nil
		} else if err != coordinator.ErrBadVersion {
			return err
		}
	}
	return fmt.Errorf("agent: publishPort: too many CAS conflicts")
}

// handleCrash implements the Storm recovery behaviour both systems share
// (§6.2): the dead worker's port disappears (emitting the PortStatus event
// Typhoon's fault detector reacts to), its heartbeats stop (so the manager
// eventually reschedules it), and the agent restarts it locally with
// exponential backoff — without backoff a crash-looping worker would write
// a fresh heartbeat on every restart and never look dead to the manager.
func (a *Agent) handleCrash(topoName string, id topology.WorkerID, err error) {
	a.mu.Lock()
	r := a.workers[topoName][id]
	if r == nil || a.stopped {
		a.mu.Unlock()
		return
	}
	r.crashed = true
	port := r.port
	r.port = nil
	key := crashKey(topoName, id)
	if time.Since(r.started) >= 10*a.opts.RestartDelay {
		a.crashStreaks[key] = 0 // healthy run: not a crash loop
	}
	a.crashStreaks[key]++
	shift := a.crashStreaks[key] - 1
	if shift > 6 {
		shift = 6
	}
	delay := a.opts.RestartDelay << shift
	a.mu.Unlock()

	if port != nil {
		_ = a.opts.Switch.RemovePort(port.No())
	}
	if a.opts.OnWorkerCrash != nil {
		a.opts.OnWorkerCrash(topoName, id, err)
	}

	// Local restart after the backoff, if the assignment still names us.
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		select {
		case <-a.stopCh:
			return
		case <-time.After(delay):
		}
		a.syncTopology(topoName)
	}()
}

func crashKey(topo string, id topology.WorkerID) string {
	return topo + "/" + strconv.FormatUint(uint64(id), 10)
}

// drainAndStop waits for the drain window, then stops a de-assigned
// worker once its input queue is empty (§3.5 stateless removal).
func (a *Agent) drainAndStop(name string, r *running) {
	defer a.wg.Done()
	select {
	case <-a.stopCh:
		return
	case <-time.After(a.opts.DrainDelay):
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if r.crashed || r.w.Transport().InQueueLen() == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	a.mu.Lock()
	delete(a.workers[name], r.w.ID())
	delete(a.crashStreaks, crashKey(name, r.w.ID()))
	a.mu.Unlock()
	a.stopWorker(r)
}

func (a *Agent) stopWorker(r *running) {
	if !r.crashed {
		r.w.Stop()
	}
	if r.port != nil {
		_ = a.opts.Switch.RemovePort(r.port.No())
	}
}

func (a *Agent) heartbeatLoop() {
	defer a.wg.Done()
	ticker := time.NewTicker(a.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-a.stopCh:
			return
		case now := <-ticker.C:
			a.mu.Lock()
			type hb struct {
				topo string
				id   topology.WorkerID
			}
			var alive []hb
			for topo, m := range a.workers {
				for id, r := range m {
					// A worker heartbeats only once fully up, so a
					// crash-looping worker (restarted locally, failing
					// again) never refreshes its heartbeat and the
					// manager's timeout eventually fires, as in Storm.
					if !r.crashed && !r.draining && now.Sub(r.started) >= a.opts.HeartbeatInterval {
						alive = append(alive, hb{topo, id})
					}
				}
			}
			a.mu.Unlock()
			stamp := []byte(strconv.FormatInt(now.UnixNano(), 10))
			for _, h := range alive {
				_, _ = a.opts.KV.Put(paths.Heartbeat(h.topo, h.id), stamp)
			}
		}
	}
}
