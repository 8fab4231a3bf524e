package controller

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"typhoon/internal/control"
	"typhoon/internal/packet"
	"typhoon/internal/paths"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// Updater is the control plane application that executes the paper's §3.5
// stable topology update protocol for stateful rescales. A managed rescale
// runs in three phases:
//
//  1. Pause: a pause marker is written to the coordinator (gating the
//     reconciliation loop's source activation and SIGNAL flushes), all
//     source workers receive DEACTIVATE control tuples, and the pipeline is
//     drained until every worker reports an empty input queue and stable
//     processed counts across two consecutive METRIC_REQ sweeps.
//  2. Migrate: the old instances of the rescaled node answer SNAPSHOT_REQ
//     tuples with their keyed state; the streaming manager reschedules the
//     node at the new parallelism; once the controller has programmed the
//     new generation's flow rules (NetReady), the collected state is
//     re-partitioned with the router's rendezvous hash ring and pushed to
//     every new instance with RESTORE tuples (replace semantics).
//  3. Resume: the pause marker is removed and sources are re-activated.
//
// Every control exchange rides the data plane (PACKET_OUT down, the
// control-stream punt rule up), so the protocol exercises exactly the
// channels the paper describes — and keeps working through tunnel-level
// chaos, because controller connections are host-local.
type Updater struct {
	BaseApp

	// rescaleMu serializes managed rescales.
	rescaleMu sync.Mutex

	mu        sync.Mutex
	token     uint64
	metrics   map[uint64]chan control.MetricResp
	snapshots map[uint64]chan control.SnapshotResp
	restores  map[uint64]chan control.RestoreResp
}

// NewUpdater builds the app.
func NewUpdater() *Updater {
	return &Updater{
		metrics:   make(map[uint64]chan control.MetricResp),
		snapshots: make(map[uint64]chan control.SnapshotResp),
		restores:  make(map[uint64]chan control.RestoreResp),
	}
}

// Name implements App.
func (u *Updater) Name() string { return "stable-updater" }

// RescaleReport describes one completed managed rescale.
type RescaleReport struct {
	// Topology and Node identify the rescaled node.
	Topology string `json:"topology"`
	Node     string `json:"node"`
	// From and To are the old and new parallelism.
	From int `json:"from"`
	To   int `json:"to"`
	// Pause is how long sources were deactivated end to end — the §3.5
	// service interruption the protocol promises to bound.
	Pause time.Duration `json:"pauseNanos"`
	// Drain is the portion of Pause spent waiting for in-flight tuples.
	Drain time.Duration `json:"drainNanos"`
	// KeysMigrated counts state entries moved between instances.
	KeysMigrated int `json:"keysMigrated"`
	// StateBytes is the total size of migrated state blobs.
	StateBytes int `json:"stateBytes"`
	// Generation is the topology generation the rescale produced.
	Generation int64 `json:"generation"`
}

// Rescale changes a node's parallelism with the three-phase stable update
// protocol. It blocks until the rescale completes or timeout elapses
// (zero selects 30 s); on any failure the topology is unpaused and sources
// re-activated before the error returns, so a failed rescale degrades to a
// pause, never a wedged pipeline.
func (u *Updater) Rescale(c *Controller, topoName, node string, parallelism int, timeout time.Duration) (*RescaleReport, error) {
	u.rescaleMu.Lock()
	defer u.rescaleMu.Unlock()
	if parallelism < 1 {
		return nil, fmt.Errorf("updater: parallelism must be >= 1")
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)

	mgr := c.Manager()
	if mgr == nil {
		return nil, fmt.Errorf("updater: no manager attached")
	}
	l, p := c.Topology(topoName)
	if l == nil || p == nil {
		return nil, fmt.Errorf("updater: unknown topology %q", topoName)
	}
	spec := l.Node(node)
	if spec == nil {
		return nil, fmt.Errorf("updater: unknown node %q", node)
	}
	report := &RescaleReport{
		Topology: topoName, Node: node,
		From: spec.Parallelism, To: parallelism,
	}
	oldInstances := append([]topology.Assignment(nil), p.Instances(node)...)

	// Phase 1: pause. The marker gates the reconciliation loop; the
	// DEACTIVATE tuples throttle sources through the data plane. The marker
	// carries the driver's ID so peers can reap it if this controller dies
	// mid-rescale (see OnTick).
	if _, err := c.kv.Put(paths.Paused(topoName), []byte(c.ID())); err != nil {
		return nil, fmt.Errorf("updater: pause marker: %w", err)
	}
	pauseStart := time.Now()
	resumed := false
	resume := func() {
		if resumed {
			return
		}
		if c.Stopped() {
			// The driving controller died mid-rescale. A dead controller
			// cannot clean up after itself: the pause marker stays, and a
			// surviving peer's reaper (OnTick) resumes the topology once the
			// driver's heartbeat lapses.
			return
		}
		resumed = true
		_ = c.kv.Delete(paths.Paused(topoName))
		if l2, p2 := c.Topology(topoName); l2 != nil {
			c.activateSources(topoName, l2, p2)
		}
		report.Pause = time.Since(pauseStart)
	}
	defer resume()

	u.setSourcesActive(c, topoName, false)

	drainStart := time.Now()
	if err := u.drain(c, topoName, deadline); err != nil {
		return nil, err
	}
	report.Drain = time.Since(drainStart)

	// Phase 2: migrate. Snapshot the old owners, reschedule, wait for the
	// network, then hand each new owner its share of the key space.
	var state map[string][]byte
	if spec.Stateful {
		var err error
		state, err = u.collectSnapshots(c, topoName, oldInstances, deadline)
		if err != nil {
			return nil, err
		}
		report.KeysMigrated = len(state)
		for _, blob := range state {
			report.StateBytes += len(blob)
		}
	}

	if err := mgr.SetParallelism(topoName, node, parallelism); err != nil {
		return nil, fmt.Errorf("updater: reschedule: %w", err)
	}
	lraw, _, err := c.kv.Get(paths.Logical(topoName))
	if err != nil {
		return nil, fmt.Errorf("updater: read rescheduled topology: %w", err)
	}
	l2, err := topology.DecodeLogical(lraw)
	if err != nil {
		return nil, err
	}
	report.Generation = l2.Generation
	if !awaitCond(time.Until(deadline), func() bool { return u.netReady(c, topoName, l2.Generation) }) {
		return nil, fmt.Errorf("updater: network not programmed for generation %d", l2.Generation)
	}

	if spec.Stateful {
		_, p2 := c.Topology(topoName)
		if p2 == nil {
			return nil, fmt.Errorf("updater: topology %q vanished mid-rescale", topoName)
		}
		newInstances := p2.Instances(node)
		if len(newInstances) != parallelism {
			return nil, fmt.Errorf("updater: expected %d instances of %q, found %d",
				parallelism, node, len(newInstances))
		}
		if err := u.restoreState(c, topoName, newInstances, state, deadline); err != nil {
			return nil, err
		}
	}

	// Phase 3: resume.
	resume()
	return report, nil
}

// setSourcesActive sends ACTIVATE/DEACTIVATE to every source instance.
func (u *Updater) setSourcesActive(c *Controller, topoName string, active bool) {
	l, p := c.Topology(topoName)
	if l == nil || p == nil {
		return
	}
	kind := control.KindDeactivate
	if active {
		kind = control.KindActivate
	}
	for _, node := range l.Nodes {
		if !node.Source {
			continue
		}
		for _, as := range p.Instances(node.Name) {
			_ = c.SendControlTuple(topoName, as.Worker, control.Encode(kind, nil))
		}
	}
}

// drain waits until the paused pipeline has no in-flight tuples: two
// consecutive METRIC_REQ sweeps in which every worker reports an empty
// input queue and the cluster-wide processed count did not move.
func (u *Updater) drain(c *Controller, topoName string, deadline time.Time) error {
	var lastProcessed uint64
	stableOnce := false
	for time.Now().Before(deadline) {
		if c.Stopped() {
			return fmt.Errorf("updater: controller stopped mid-drain")
		}
		queued, processed, complete := u.metricSweep(c, topoName, deadline)
		if complete && queued == 0 {
			if stableOnce && processed == lastProcessed {
				return nil
			}
			stableOnce = true
			lastProcessed = processed
		} else {
			stableOnce = false
		}
		time.Sleep(5 * pollInterval)
	}
	return fmt.Errorf("updater: drain of %q timed out", topoName)
}

// metricSweep polls every worker of the topology once, returning the
// summed queue length and processed count, and whether every worker
// answered before the sweep window closed.
func (u *Updater) metricSweep(c *Controller, topoName string, deadline time.Time) (queued int, processed uint64, complete bool) {
	_, p := c.Topology(topoName)
	if p == nil {
		return 0, 0, false
	}
	workers := append([]topology.Assignment(nil), p.Workers...)
	ch := make(chan control.MetricResp, len(workers)+1)
	token := u.register(func(t uint64) { u.metrics[t] = ch })
	defer u.unregister(func() { delete(u.metrics, token) })
	sent := 0
	for _, as := range workers {
		if c.SendControlTuple(topoName, as.Worker,
			control.Encode(control.KindMetricReq, control.MetricReq{Token: token})) == nil {
			sent++
		}
	}
	if sent < len(workers) {
		return 0, 0, false // someone unreachable (restarting): not drained
	}
	sweepEnd := time.Now().Add(time.Second)
	if sweepEnd.After(deadline) {
		sweepEnd = deadline
	}
	got := 0
	for got < sent && time.Now().Before(sweepEnd) {
		select {
		case mr := <-ch:
			queued += mr.QueueLen
			processed += mr.Processed
			got++
		case <-time.After(pollInterval):
		}
	}
	return queued, processed, got == sent
}

// collectSnapshots gathers the full key range from every old instance of
// the rescaled node, retrying stragglers until the deadline.
func (u *Updater) collectSnapshots(c *Controller, topoName string, instances []topology.Assignment, deadline time.Time) (map[string][]byte, error) {
	state := make(map[string][]byte)
	pendingSet := make(map[topology.WorkerID]bool, len(instances))
	for _, as := range instances {
		pendingSet[as.Worker] = true
	}
	ch := make(chan control.SnapshotResp, len(instances)+1)
	token := u.register(func(t uint64) { u.snapshots[t] = ch })
	defer u.unregister(func() { delete(u.snapshots, token) })
	for len(pendingSet) > 0 {
		if c.Stopped() {
			return nil, fmt.Errorf("updater: controller stopped mid-snapshot")
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("updater: %d snapshot(s) of %q never arrived", len(pendingSet), topoName)
		}
		for id := range pendingSet {
			_ = c.SendControlTuple(topoName, id, control.Encode(control.KindSnapshotReq,
				control.SnapshotReq{Token: token, From: 0, To: worker.NumPartitions}))
		}
		round := time.Now().Add(time.Second)
		if round.After(deadline) {
			round = deadline
		}
		for len(pendingSet) > 0 && time.Now().Before(round) {
			select {
			case resp := <-ch:
				if !pendingSet[resp.Worker] {
					continue // duplicate from a re-sent request
				}
				delete(pendingSet, resp.Worker)
				for k, v := range resp.State {
					state[k] = v
				}
			case <-time.After(pollInterval):
			}
		}
	}
	return state, nil
}

// restoreState re-partitions the collected state over the new instance set
// with the router's rendezvous hash ring and pushes every instance its
// share — including empty shares, since RESTORE has replace semantics and
// surviving instances must drop the keys they no longer own.
func (u *Updater) restoreState(c *Controller, topoName string, instances []topology.Assignment, state map[string][]byte, deadline time.Time) error {
	n := len(instances)
	shares := make([]map[string][]byte, n)
	for i := range shares {
		shares[i] = make(map[string][]byte)
	}
	for k, v := range state {
		idx := worker.OwnerIndex(worker.PartitionOfKey(k), n)
		shares[idx][k] = v
	}
	byWorker := make(map[topology.WorkerID]map[string][]byte, n)
	for i, as := range instances {
		// Instances arrive sorted by Index; guard against gaps anyway.
		if as.Index >= 0 && as.Index < n {
			byWorker[as.Worker] = shares[as.Index]
		} else {
			byWorker[as.Worker] = shares[i]
		}
	}
	pendingSet := make(map[topology.WorkerID]bool, n)
	for _, as := range instances {
		pendingSet[as.Worker] = true
	}
	ch := make(chan control.RestoreResp, n+1)
	token := u.register(func(t uint64) { u.restores[t] = ch })
	defer u.unregister(func() { delete(u.restores, token) })
	for len(pendingSet) > 0 {
		if c.Stopped() {
			return fmt.Errorf("updater: controller stopped mid-restore")
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("updater: %d restore ack(s) of %q never arrived", len(pendingSet), topoName)
		}
		for id := range pendingSet {
			_ = c.SendControlTuple(topoName, id, control.Encode(control.KindRestore,
				control.Restore{Token: token, State: byWorker[id]}))
		}
		round := time.Now().Add(time.Second)
		if round.After(deadline) {
			round = deadline
		}
		for len(pendingSet) > 0 && time.Now().Before(round) {
			select {
			case resp := <-ch:
				delete(pendingSet, resp.Worker)
			case <-time.After(pollInterval):
			}
		}
	}
	return nil
}

// OnTick implements App: reap pause markers orphaned by a dead controller.
// A rescale whose driver dies mid-flight must degrade to a pause, never a
// wedged pipeline — the marker would otherwise gate source activation
// forever. When the marker names a controller whose registration heartbeat
// has lapsed, the topology's current owner deletes it and re-activates
// sources; the half-finished rescale is abandoned, but the pipeline runs.
func (u *Updater) OnTick(c *Controller) {
	for _, name := range c.TopologyNames() {
		if !c.OwnsTopology(name) {
			continue
		}
		raw, _, err := c.kv.Get(paths.Paused(name))
		if err != nil {
			continue
		}
		owner := string(raw)
		if owner == c.ID() || c.ControllerLive(owner) {
			continue
		}
		_ = c.kv.Delete(paths.Paused(name))
		if l, p := c.Topology(name); l != nil && p != nil {
			c.activateSources(name, l, p)
		}
	}
}

// netReady reports whether the controller has programmed the data plane
// for at least generation gen.
func (u *Updater) netReady(c *Controller, topoName string, gen int64) bool {
	raw, _, err := c.kv.Get(paths.NetReady(topoName))
	if err != nil {
		return false
	}
	got, perr := strconv.ParseInt(string(raw), 10, 64)
	return perr == nil && got >= gen
}

// register allocates a fresh token and installs a response channel for it.
func (u *Updater) register(install func(token uint64)) uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.token++
	install(u.token)
	return u.token
}

func (u *Updater) unregister(remove func()) {
	u.mu.Lock()
	defer u.mu.Unlock()
	remove()
}

// OnControlTuple implements App: route worker replies to the in-flight
// rescale's collection channels by token.
func (u *Updater) OnControlTuple(c *Controller, host string, src packet.Addr, t tuple.Tuple) {
	kind, err := control.DecodeKind(t)
	if err != nil {
		return
	}
	switch kind {
	case control.KindMetricResp:
		var mr control.MetricResp
		if control.DecodePayload(t, &mr) != nil {
			return
		}
		u.mu.Lock()
		ch := u.metrics[mr.Token]
		u.mu.Unlock()
		deliver(ch, mr)
	case control.KindSnapshotResp:
		var sr control.SnapshotResp
		if control.DecodePayload(t, &sr) != nil {
			return
		}
		u.mu.Lock()
		ch := u.snapshots[sr.Token]
		u.mu.Unlock()
		deliver(ch, sr)
	case control.KindRestoreResp:
		var rr control.RestoreResp
		if control.DecodePayload(t, &rr) != nil {
			return
		}
		u.mu.Lock()
		ch := u.restores[rr.Token]
		u.mu.Unlock()
		deliver(ch, rr)
	}
}

// deliver enqueues a reply without ever blocking the PacketIn path.
func deliver[T any](ch chan T, v T) {
	if ch == nil {
		return
	}
	select {
	case ch <- v:
	default:
	}
}
