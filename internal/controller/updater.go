package controller

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
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

	mu    sync.Mutex
	token uint64
	// replies routes worker answers to the in-flight exchanges by token.
	replies map[uint64]chan reply
}

// reply is one worker's answer to an exchange: the worker named in its
// payload, and the payload, which the exchange's caller decodes.
type reply struct {
	worker topology.WorkerID
	body   []byte
}

// exchangeRound is how long an exchange waits before asking its stragglers
// again: a request or answer a restarting worker misses is lost, not late.
const exchangeRound = time.Second

// drainGap separates the drain's METRIC_REQ sweeps. A frame in a switch RX
// ring or in the tunnel sits in no worker's input queue, so one empty sweep
// does not prove the pipeline empty; a later sweep sees such a frame as
// queued or processed.
const drainGap = 5 * time.Millisecond

// NewUpdater builds the app.
func NewUpdater() *Updater {
	return &Updater{replies: make(map[uint64]chan reply)}
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
			c.sendToSources(topoName, l2, p2, control.KindActivate)
		}
		report.Pause = time.Since(pauseStart)
	}
	defer resume()

	c.sendToSources(topoName, l, p, control.KindDeactivate)

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
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if err := mgr.WaitReadyCtx(ctx, topoName); err != nil {
		return nil, fmt.Errorf("updater: network not programmed for generation %d: %w", l2.Generation, err)
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
		time.Sleep(drainGap)
	}
	return fmt.Errorf("updater: drain of %q timed out", topoName)
}

// metricSweep asks every worker of the topology once for its statistics,
// returning the summed queue length and processed count, and whether every
// worker answered within one exchange round. A worker it cannot reach
// (restarting) ends the sweep at once: the pipeline is not drained.
func (u *Updater) metricSweep(c *Controller, topoName string, deadline time.Time) (queued int, processed uint64, complete bool) {
	_, p := c.Topology(topoName)
	if p == nil {
		return 0, 0, false
	}
	sweepEnd := time.Now().Add(exchangeRound)
	if sweepEnd.After(deadline) {
		sweepEnd = deadline
	}
	replies, missing := u.exchange(c.stopCh, p.Workers, sweepEnd, func(token uint64, id topology.WorkerID) bool {
		return c.SendControlTuple(topoName, id,
			control.Encode(control.KindMetricReq, control.MetricReq{Token: token})) == nil
	})
	for _, body := range replies {
		var mr control.MetricResp
		if json.Unmarshal(body, &mr) != nil {
			return 0, 0, false
		}
		queued += mr.QueueLen
		processed += mr.Processed
	}
	return queued, processed, missing == 0
}

// collectSnapshots gathers the full key range from every old instance of
// the rescaled node, asking stragglers again until the deadline.
func (u *Updater) collectSnapshots(c *Controller, topoName string, instances []topology.Assignment, deadline time.Time) (map[string][]byte, error) {
	replies, missing := u.exchange(c.stopCh, instances, deadline, func(token uint64, id topology.WorkerID) bool {
		_ = c.SendControlTuple(topoName, id, control.Encode(control.KindSnapshotReq,
			control.SnapshotReq{Token: token, From: 0, To: worker.NumPartitions}))
		return true
	})
	if missing > 0 {
		if c.Stopped() {
			return nil, fmt.Errorf("updater: controller stopped mid-snapshot")
		}
		return nil, fmt.Errorf("updater: %d snapshot(s) of %q never arrived", missing, topoName)
	}
	state := make(map[string][]byte)
	for _, body := range replies {
		var sr control.SnapshotResp
		if err := json.Unmarshal(body, &sr); err != nil {
			return nil, fmt.Errorf("updater: snapshot of %q: %w", topoName, err)
		}
		maps.Copy(state, sr.State)
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
	_, missing := u.exchange(c.stopCh, instances, deadline, func(token uint64, id topology.WorkerID) bool {
		_ = c.SendControlTuple(topoName, id, control.Encode(control.KindRestore,
			control.Restore{Token: token, State: byWorker[id]}))
		return true
	})
	if missing > 0 {
		if c.Stopped() {
			return fmt.Errorf("updater: controller stopped mid-restore")
		}
		return fmt.Errorf("updater: %d restore ack(s) of %q never arrived", missing, topoName)
	}
	return nil
}

// exchange asks every worker in workers, under one fresh token, and keeps
// the first answer each sends back; answers to other tokens, from workers
// not pending and repeats are ignored. ask sends one worker the request;
// returning false abandons the exchange. Stragglers are asked again once
// per exchangeRound. The exchange ends when every worker has answered, at
// until, or when stop closes, and returns the answers by worker and how
// many workers never answered.
func (u *Updater) exchange(stop <-chan struct{}, workers []topology.Assignment, until time.Time, ask func(token uint64, id topology.WorkerID) bool) (map[topology.WorkerID][]byte, int) {
	// Room for every worker's answer and a late answer to an earlier round.
	ch := make(chan reply, 2*len(workers))
	u.mu.Lock()
	u.token++
	token := u.token
	u.replies[token] = ch
	u.mu.Unlock()
	defer func() {
		u.mu.Lock()
		delete(u.replies, token)
		u.mu.Unlock()
	}()
	pending := make(map[topology.WorkerID]bool, len(workers))
	for _, as := range workers {
		pending[as.Worker] = true
	}
	got := make(map[topology.WorkerID][]byte, len(workers))
	round := time.NewTimer(0) // the first round starts at once
	defer round.Stop()
	for len(pending) > 0 {
		select {
		case r := <-ch:
			if pending[r.worker] {
				delete(pending, r.worker)
				got[r.worker] = r.body
			}
		case <-round.C:
			if !time.Now().Before(until) {
				return got, len(pending)
			}
			for id := range pending {
				if !ask(token, id) {
					return got, len(pending)
				}
			}
			round.Reset(min(exchangeRound, time.Until(until)))
		case <-stop:
			return got, len(pending)
		}
	}
	return got, 0
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
			c.sendToSources(name, l, p, control.KindActivate)
		}
	}
}

// OnControlTuple implements App: route a worker's answer to the exchange
// its token names. METRIC_RESP, SNAPSHOT_RESP and RESTORE_RESP all carry
// the token and the answering worker; answers to the app host's sweeps carry
// token 0, which no exchange uses.
func (u *Updater) OnControlTuple(_ *Controller, _ string, _ packet.Addr, t tuple.Tuple) {
	var head struct {
		Token  uint64            `json:"token"`
		Worker topology.WorkerID `json:"worker"`
	}
	if control.DecodePayload(t, &head) != nil {
		return
	}
	u.mu.Lock()
	ch := u.replies[head.Token]
	u.mu.Unlock()
	if ch == nil {
		return
	}
	// The payload lies in the PacketIn decoder's arena: copy it out. A full
	// channel drops the answer rather than block the PacketIn path; the
	// straggler is asked again next round.
	select {
	case ch <- reply{worker: head.Worker, body: bytes.Clone(t.Field(1).AsBytes())}:
	default:
	}
}
