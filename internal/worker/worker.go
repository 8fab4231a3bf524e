package worker

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"typhoon/internal/clock"
	"typhoon/internal/control"
	"typhoon/internal/metrics"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// Config describes one worker instance.
type Config struct {
	App   uint16
	ID    topology.WorkerID
	Node  string
	Index int
	// Logic names the registered computation-logic factory.
	Logic string
	// Source marks spout workers.
	Source bool
	// Stateful marks workers with flushable in-memory state (Table 4).
	Stateful bool
	// Routes is the initial routing table.
	Routes []topology.Route
	// Subscriptions lists the data streams this worker accepts; nil
	// accepts every stream (signal and control streams are always
	// handled).
	Subscriptions []tuple.StreamID
	// Acking enables guaranteed processing: emissions are tracked through
	// the acker and sources replay expired tuples.
	Acking bool
	// MaxPending caps in-flight tracked source tuples (backpressure).
	MaxPending int
	// AckTimeout is how long a tracked tuple may stay incomplete before
	// the source replays it.
	AckTimeout time.Duration
	// FlushInterval is the flush deadline D. A positive D makes the loop
	// flush before every wait and bounds staging in a loop that never waits
	// (see flushIfDue). Zero selects DefaultFlushDeadline. Negative disables
	// both: only the transport's batch threshold (or Stop) flushes then.
	// BATCH_SIZE control tuples retune it live.
	FlushInterval time.Duration
	// RateLimit is the initial input rate (tuples/sec); <= 0 unlimited.
	RateLimit float64
	// StartInactive launches source workers throttled; the SDN controller
	// activates them once flow rules are in place (deployment step v of
	// §3.2 and the ACTIVATE tuple of Table 2).
	StartInactive bool
	// StatsInterval makes the worker statistics reporter (Fig 4) push
	// unsolicited METRIC_RESP tuples to the controller this often; zero
	// disables pushing (metrics then flow only on METRIC_REQ).
	StatsInterval time.Duration
	// Env is the shared environment passed to components.
	Env *SharedEnv
	// OnExit, when set, is invoked once when the worker stops, with nil
	// on graceful shutdown or the failure error on a crash.
	OnExit func(id topology.WorkerID, err error)
}

// Stats is a snapshot of a worker's internal counters (METRIC_RESP data).
type Stats struct {
	Processed uint64
	Emitted   uint64
	Completed uint64
	Replayed  uint64
	Filtered  uint64
	QueueLen  int
	ProcNanos uint64
}

// DefaultFlushDeadline is the default bound on how long an emitted tuple may
// stay staged in the transport while the loop keeps working without a wait.
const DefaultFlushDeadline = time.Millisecond

// The worker goroutine waits in exactly one place, Transport.Recv, and wakes
// early on an incoming frame. After an iteration that did work it polls
// (wait 0). A source keeps polling until idleSpin has passed since it last
// did work: blocking on the first empty Next would turn a paced source's
// emissions into bursts one idle wait apart. The budget is time, read off the
// clock the loop reads anyway, because what it has to outlast is the gap
// between two due tuples — an iteration count buys less spin every time an
// iteration gets cheaper (64 of them were ~20 µs when an empty iteration cost
// ~300 ns). It is judged by the previous iteration's clock read, so that a
// whole Next has come back empty since: a goroutine descheduled inside an
// iteration (GC pause, preemption) would otherwise take the time it lost for
// idleness and go to sleep on due tuples. Past the budget a source blocks for
// sourceIdleWait and a bolt for boltIdleWait.
//
// A staged tuple never waits out a timer. Two things move it to the wire:
//   - the transport's batch threshold, owned by the transport;
//   - the loop's flush before a wait (flushIfDue with n = 0), wherever it is
//     about to block: run's idle wait and awaitToken's rate-limit wait. It
//     runs on the block path only, never on an empty iteration inside
//     idleSpin, so a paced source still fills frames.
//
// The flush deadline D bounds only a loop that never waits: a source paced
// inside idleSpin, or a long batch (see flushIfDue). Go timers below a
// millisecond return after about a millisecond in an idle process, so a
// sleep with output staged would hold each hop's tuples that long.
//
// What the loop pays, and how often:
//   - per tuple (execute, dispatch, EmitOn, Router.routeInto, Send): plain
//     single-goroutine work and atomic loads — no wall-clock read, select,
//     lock or allocation, and no subscription-map probe while the stream
//     repeats. (An acked source's pending stamp and the rate-limit wait of a
//     throttled worker are the exceptions, off the unacked unthrottled path.)
//   - per iteration: the stop/fail/hang checks (atomic loads), one Recv, one
//     wall-clock read in front of a non-empty batch and one after it; the
//     second drives the D flush gate, replay scan and stats push, charges the
//     batch to procNanos and is followed by publishTallies.
//   - per coarse-clock tick (clock.CoarseGranularity) seen inside a batch:
//     onTick — one wall-clock read for the 2·D flush gate, and publishTallies,
//     so another goroutine's view of Processed/Emitted is never more than one
//     tick plus one Execute old however long the batch runs.
const (
	idleSpin       = 20 * time.Microsecond
	sourceIdleWait = 200 * time.Microsecond
	boltIdleWait   = time.Millisecond
)

// errStopping aborts a batch when Stop arrives during the rate-limit wait; the
// rest stays undispatched, like whatever is still queued in the transport.
var errStopping = errors.New("worker: stopping")

type pendingEntry struct {
	stream   tuple.StreamID
	values   []tuple.Value
	emitted  time.Time
	attempts int
}

// Worker is one running worker instance. All processing happens on a
// single goroutine, matching the single-threaded executor model the paper's
// prototype inherits from Storm.
type Worker struct {
	cfg  Config
	comp Component
	tr   Transport
	rt   *Router
	ctx  *Context
	rate *RateLimiter

	active  atomic.Bool
	stopped atomic.Bool
	stopCh  chan struct{}
	done    chan struct{}
	exitErr error
	exitMu  sync.Mutex

	// Fault-injection hooks (internal/chaos): a pending induced failure,
	// a one-shot stall, and a per-tuple slowdown in nanoseconds.
	failInj chan error
	hangNs  atomic.Int64
	slowNs  atomic.Int64

	lastFlush time.Time // last loop flush (flushIfDue)

	// Loop-goroutine state (see the loop comment): running totals behind
	// processed and emitted, the coarse-clock value last acted on, rate-limit
	// waits inside the current batch, EmitOn's and send's routing scratch
	// (separate: an acked source sends its INIT between routing a data tuple
	// and sending it), and the last stream found subscribed.
	nProcessed, nEmitted uint64
	lastTick             int64
	throttled            time.Duration
	dests, sendDests     []Destination
	lastSub              tuple.StreamID

	// Framework-layer state for guaranteed processing.
	rng     *rand.Rand
	curRoot uint64
	curXor  uint64
	anchor  bool
	pending map[uint64]*pendingEntry

	// CompleteLatencies records end-to-end tuple latency observed at the
	// source when acking is enabled (Figs 8c/8d are its CDF).
	CompleteLatencies *metrics.Histogram

	processed atomic.Uint64
	emitted   atomic.Uint64
	completed atomic.Uint64
	replayed  atomic.Uint64
	filtered  atomic.Uint64
	procNanos atomic.Uint64

	subs map[tuple.StreamID]bool
}

// New builds a worker from config, instantiating its logic and binding it
// to a transport. Call Start to begin processing.
func New(cfg Config, tr Transport) (*Worker, error) {
	comp, err := NewLogic(cfg.Logic)
	if err != nil {
		return nil, err
	}
	if cfg.Source {
		if _, ok := comp.(Spout); !ok {
			return nil, fmt.Errorf("worker: logic %q is not a Spout", cfg.Logic)
		}
	} else if _, ok := comp.(Bolt); !ok {
		return nil, fmt.Errorf("worker: logic %q is not a Bolt", cfg.Logic)
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 10000
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = DefaultFlushDeadline
	}
	w := &Worker{
		cfg:               cfg,
		comp:              comp,
		tr:                tr,
		rt:                NewRouter(cfg.Routes),
		rate:              NewRateLimiter(cfg.RateLimit),
		stopCh:            make(chan struct{}),
		done:              make(chan struct{}),
		failInj:           make(chan error, 1),
		rng:               rand.New(rand.NewSource(int64(cfg.ID)*2654435761 + 1)),
		pending:           make(map[uint64]*pendingEntry),
		CompleteLatencies: &metrics.Histogram{},
		lastSub:           tuple.ControlStream, // never reaches the subscription check
	}
	if len(cfg.Subscriptions) > 0 {
		w.subs = make(map[tuple.StreamID]bool, len(cfg.Subscriptions))
		for _, s := range cfg.Subscriptions {
			w.subs[s] = true
		}
	}
	w.ctx = &Context{em: w, id: uint32(cfg.ID), node: cfg.Node, index: cfg.Index, shared: cfg.Env}
	w.active.Store(!cfg.StartInactive)
	return w, nil
}

// ID returns the worker's physical ID.
func (w *Worker) ID() topology.WorkerID { return w.cfg.ID }

// Node returns the logical node name.
func (w *Worker) Node() string { return w.cfg.Node }

// Router exposes the routing table (tests and the in-process controller
// use it; production reconfiguration goes through ROUTING control tuples).
func (w *Worker) Router() *Router { return w.rt }

// Transport exposes the underlying transport.
func (w *Worker) Transport() Transport { return w.tr }

// Start launches the worker goroutine.
func (w *Worker) Start() {
	go w.run()
}

// Stop requests a graceful shutdown and waits for the loop to exit.
func (w *Worker) Stop() {
	if w.stopped.CompareAndSwap(false, true) {
		close(w.stopCh)
	}
	<-w.done
}

// Wait blocks until the worker exits (crash or Stop).
func (w *Worker) Wait() { <-w.done }

// ExitErr returns the failure that stopped the worker, or nil.
func (w *Worker) ExitErr() error {
	w.exitMu.Lock()
	defer w.exitMu.Unlock()
	return w.exitErr
}

// Fail injects a failure: the worker exits from its processing loop with
// err as if its logic had crashed, taking the usual crash path (port
// removal, OnExit, agent restart). It is the chaos engine's crash hook.
func (w *Worker) Fail(err error) {
	if err == nil {
		err = fmt.Errorf("worker %d: injected failure", w.cfg.ID)
	}
	select {
	case w.failInj <- err:
	default: // a failure is already pending
	}
}

// Hang stalls the worker's processing loop once for d (heartbeats continue
// — the agent owns those — so a hung worker models a live-but-stuck
// executor, detectable only through queue growth). Chaos hook.
func (w *Worker) Hang(d time.Duration) {
	if d > 0 {
		w.hangNs.Store(int64(d))
	}
}

// Slow adds d of artificial processing time per executed tuple; zero
// restores full speed. It models a slow consumer (chaos hook).
func (w *Worker) Slow(d time.Duration) {
	if d < 0 {
		d = 0
	}
	w.slowNs.Store(int64(d))
}

// Activate unthrottles a source worker (ACTIVATE control tuple, or the
// manager's activation path in the baseline).
func (w *Worker) Activate() { w.active.Store(true) }

// StatsSnapshot returns current worker statistics.
func (w *Worker) StatsSnapshot() Stats {
	return Stats{
		Processed: w.processed.Load(),
		Emitted:   w.emitted.Load(),
		Completed: w.completed.Load(),
		Replayed:  w.replayed.Load(),
		Filtered:  w.filtered.Load(),
		QueueLen:  w.tr.InQueueLen(),
		ProcNanos: w.procNanos.Load(),
	}
}

func (w *Worker) run() {
	var failure error
	defer func() {
		w.publishTallies()
		_ = w.comp.Close(w.ctx)
		_ = w.tr.Flush()
		_ = w.tr.Close()
		w.exitMu.Lock()
		w.exitErr = failure
		w.exitMu.Unlock()
		close(w.done)
		if w.cfg.OnExit != nil {
			w.cfg.OnExit(w.cfg.ID, failure)
		}
	}()
	if err := w.comp.Open(w.ctx); err != nil {
		failure = fmt.Errorf("worker %d: open: %w", w.cfg.ID, err)
		return
	}
	spout, _ := w.comp.(Spout)
	bolt, _ := w.comp.(Bolt)

	w.lastFlush = time.Now()
	lastReplayScan := time.Now()
	lastStats := time.Now()
	idleWait := boltIdleWait
	if spout != nil {
		idleWait = sourceIdleWait
	}
	// When the last iteration that did work ended, and the last iteration.
	lastWork, lastIter := w.lastFlush, w.lastFlush
	wait := time.Duration(0)
	for {
		if w.stopped.Load() { // set before stopCh closes
			return
		}
		if len(w.failInj) > 0 {
			failure = <-w.failInj
			return
		}
		if w.hangNs.Load() > 0 {
			// Injected stall: sleep without processing, but stay
			// responsive to Stop so teardown is never blocked.
			select {
			case <-w.stopCh:
				return
			case <-time.After(time.Duration(w.hangNs.Swap(0))):
			}
		}

		tuples, err := w.tr.Recv(256, wait)
		if err != nil {
			// Transport closed underneath us. During a graceful Stop that
			// is expected; otherwise (port removed, peer vanished) it is a
			// crash — report it so the agent's restart path fires instead
			// of leaving a zombie that still looks alive.
			if !w.stopped.Load() {
				failure = fmt.Errorf("worker %d (%s): %w", w.cfg.ID, w.cfg.Node, err)
			}
			return
		}
		worked := len(tuples) > 0
		var batchStart time.Time
		executed := w.nProcessed
		if worked {
			batchStart, w.throttled = time.Now(), 0
		}
		for _, t := range tuples {
			if err := w.dispatch(bolt, t); err != nil {
				if err != errStopping {
					failure = err
				}
				return
			}
		}

		// Emission phase for sources.
		if spout != nil && w.active.Load() && len(w.pending) < w.cfg.MaxPending {
			if w.rate.Allow() {
				did, err := spout.Next(w.ctx)
				if err != nil {
					failure = fmt.Errorf("worker %d: next: %w", w.cfg.ID, err)
					return
				}
				worked = worked || did
			}
		}

		now := time.Now()
		if w.nProcessed != executed {
			w.procNanos.Add(uint64(now.Sub(batchStart) - w.throttled))
		}
		w.flushIfDue(now, 1)
		if w.cfg.Acking && w.cfg.Source && now.Sub(lastReplayScan) >= w.cfg.AckTimeout/4 {
			w.replayExpired(now)
			lastReplayScan = now
		}
		w.publishTallies()
		if w.cfg.StatsInterval > 0 && now.Sub(lastStats) >= w.cfg.StatsInterval {
			w.pushStats()
			lastStats = now
		}
		switch {
		case worked:
			lastWork, wait = now, 0
		case spout != nil && lastIter.Sub(lastWork) < idleSpin:
			wait = 0
		default:
			w.flushIfDue(now, 0)
			wait = idleWait
		}
		lastIter = now
	}
}

// flushIfDue flushes the transport once n deadlines have passed since the
// last flush; a negative deadline turns it off. The loop asks with n = 0
// wherever it is about to block, so no tuple waits out a timer. In a loop
// that does not wait it is the time bound on staging: n = 1 between batches
// bounds a source pacing itself inside idleSpin, and n = 2 inside a batch, at
// the first executed tuple after each coarse-clock tick (onTick), lets a
// burst that ends in time leave whole at the batch boundary while a batch
// that overstays (slow logic, the chaos Slow hook) is flushed all the same.
// There a staged tuple waits under two deadlines plus one coarse tick plus
// one Execute.
func (w *Worker) flushIfDue(now time.Time, n int) {
	if every := w.cfg.FlushInterval; every > 0 && now.Sub(w.lastFlush) >= time.Duration(n)*every {
		_ = w.tr.Flush()
		w.lastFlush = now
	}
}

// onTick is what a batch in progress owes the wall clock. execute calls it
// when the coarse clock has moved since the loop last looked, so it costs one
// real clock read per tick rather than two per tuple.
func (w *Worker) onTick(coarse int64) {
	w.lastTick = coarse
	w.publishTallies()
	w.flushIfDue(time.Now(), 2)
}

// publishTallies makes the loop's running totals visible to other goroutines
// (StatsSnapshot). The loop goroutine is the only writer of both counters.
func (w *Worker) publishTallies() {
	if w.processed.Load() != w.nProcessed {
		w.processed.Store(w.nProcessed)
	}
	if w.emitted.Load() != w.nEmitted {
		w.emitted.Store(w.nEmitted)
	}
}

// dispatch routes one incoming tuple to the right layer.
func (w *Worker) dispatch(bolt Bolt, t tuple.Tuple) error {
	switch {
	case t.Stream.IsControl():
		w.handleControl(t)
		return nil
	case t.Stream == tuple.CompleteStream:
		w.handleComplete(t)
		return nil
	case t.Stream.IsSignal():
		// Signals reach the application layer (Listing 2).
		if bolt == nil {
			return nil
		}
		return w.execute(bolt, t)
	default:
		if w.subs != nil && t.Stream != w.lastSub {
			if !w.subs[t.Stream] {
				w.filtered.Add(1)
				return nil
			}
			w.lastSub = t.Stream
		}
		if bolt == nil {
			w.filtered.Add(1)
			return nil
		}
		if !w.awaitToken() {
			return errStopping
		}
		return w.execute(bolt, t)
	}
}

// awaitToken blocks until the input rate limiter grants a token, reporting
// false if Stop arrives first. What earlier tuples of the batch emitted is
// flushed before each wait, so it does not wait out the throttle, and the
// time waited is kept out of the batch's processing time.
func (w *Worker) awaitToken() bool {
	for {
		d := w.rate.take()
		if d == 0 {
			return true
		}
		w.flushIfDue(time.Now(), 0)
		began := time.Now()
		timer := time.NewTimer(d)
		select {
		case <-w.stopCh:
			timer.Stop()
			return false
		case <-timer.C:
		}
		w.throttled += time.Since(began)
		w.publishTallies()
	}
}

func (w *Worker) execute(bolt Bolt, t tuple.Tuple) error {
	if ns := w.slowNs.Load(); ns > 0 {
		time.Sleep(time.Duration(ns))
	}
	w.anchor = w.cfg.Acking && t.Root != 0
	w.curRoot = t.Root
	w.curXor = t.ID
	err := bolt.Execute(w.ctx, t)
	w.nProcessed++
	if err != nil {
		w.anchor = false
		return fmt.Errorf("worker %d (%s): execute: %w", w.cfg.ID, w.cfg.Node, err)
	}
	if w.anchor {
		w.sendAck(1, w.curRoot, w.curXor, 0)
	}
	w.anchor = false
	if c := clock.CoarseUnixNano(); c != w.lastTick {
		w.onTick(c)
	}
	return nil
}

// InQueueLen reports the worker's input backlog (Context.QueueLen).
func (w *Worker) InQueueLen() int { return w.tr.InQueueLen() }

// Emit implements Emitter.
func (w *Worker) Emit(values ...tuple.Value) { w.EmitOn(tuple.DefaultStream, values...) }

// EmitOn implements Emitter.
func (w *Worker) EmitOn(s tuple.StreamID, values ...tuple.Value) {
	t := tuple.OnStream(s, values...)
	w.dests = w.rt.routeInto(w.dests[:0], t)
	dests := w.dests
	if len(dests) == 0 {
		// No subscribers: the tuple is dropped and, crucially, never
		// joins a tuple tree (an unconsumable edge would otherwise keep
		// the tree from completing).
		return
	}
	if w.anchor {
		// Anchored emission: child edge ID joins the XOR of the tree.
		t.Root = w.curRoot
		t.ID = w.nonZeroRand()
		w.curXor ^= t.ID
	} else if w.cfg.Acking && w.cfg.Source && !isFrameworkStream(s) {
		root := w.nonZeroRand()
		t.Root, t.ID = root, root
		w.pending[root] = &pendingEntry{
			stream:  s,
			values:  values,
			emitted: time.Now(),
		}
		w.sendAck(0, root, root, uint64(w.cfg.ID))
	}
	for _, d := range dests {
		_ = w.tr.Send(d, t)
		w.nEmitted++
	}
}

// send routes and sends a tuple the framework produced itself (acker
// traffic, replays) through its own scratch, leaving EmitOn's intact.
func (w *Worker) send(t tuple.Tuple) {
	w.sendDests = w.rt.routeInto(w.sendDests[:0], t)
	for _, d := range w.sendDests {
		_ = w.tr.Send(d, t)
		w.nEmitted++
	}
}

// sendAck emits an acker tuple: kind 0 = INIT (with source worker), kind 1
// = ACK. Acker tuples travel on tuple.AckStream and are routed by the
// root's hash so a given tuple tree always meets the same acker.
func (w *Worker) sendAck(kind int64, root, xor, src uint64) {
	at := tuple.OnStream(tuple.AckStream,
		tuple.Int(kind), tuple.Int(int64(root)), tuple.Int(int64(xor)), tuple.Int(int64(src)))
	w.send(at)
}

func (w *Worker) handleComplete(t tuple.Tuple) {
	root := uint64(t.Field(1).AsInt())
	e := w.pending[root]
	if e == nil {
		return
	}
	delete(w.pending, root)
	w.completed.Add(1)
	w.CompleteLatencies.Record(time.Since(e.emitted))
}

func (w *Worker) replayExpired(now time.Time) {
	const maxAttempts = 5
	for root, e := range w.pending {
		if now.Sub(e.emitted) < w.cfg.AckTimeout {
			continue
		}
		delete(w.pending, root)
		if e.attempts+1 >= maxAttempts {
			continue
		}
		w.replayed.Add(1)
		newRoot := w.nonZeroRand()
		t := tuple.OnStream(e.stream, e.values...)
		t.Root, t.ID = newRoot, newRoot
		w.pending[newRoot] = &pendingEntry{
			stream:   e.stream,
			values:   e.values,
			emitted:  now,
			attempts: e.attempts + 1,
		}
		w.sendAck(0, newRoot, newRoot, uint64(w.cfg.ID))
		w.send(t)
	}
}

func (w *Worker) handleControl(t tuple.Tuple) {
	kind, err := control.DecodeKind(t)
	if err != nil {
		return
	}
	switch kind {
	case control.KindRouting:
		var r control.Routing
		if control.DecodePayload(t, &r) == nil {
			w.rt.Update(r.Routes)
		}
	case control.KindSignal:
		// Forward to the application layer as a flush signal.
		if bolt, ok := w.comp.(Bolt); ok {
			_ = w.execute(bolt, control.NewSignal())
		}
	case control.KindMetricReq:
		var req control.MetricReq
		_ = control.DecodePayload(t, &req)
		w.sendMetrics(req.Token)
	case control.KindInputRate:
		var r control.InputRate
		if control.DecodePayload(t, &r) == nil {
			w.rate.SetRate(r.TuplesPerSec)
		}
	case control.KindBatchSize:
		// The time bound on staging is this loop's; the count threshold is
		// the transport's, which takes the tuple whole.
		var b control.BatchSize
		if control.DecodePayload(t, &b) == nil && b.FlushDeadline != 0 {
			w.cfg.FlushInterval = b.FlushDeadline
		}
		_ = w.tr.Reconfigure(t)
	case control.KindActivate:
		w.active.Store(true)
	case control.KindDeactivate:
		w.active.Store(false)
	case control.KindSnapshotReq:
		var req control.SnapshotReq
		if control.DecodePayload(t, &req) == nil {
			w.sendSnapshot(req)
		}
	case control.KindRestore:
		var r control.Restore
		if control.DecodePayload(t, &r) == nil {
			w.restoreState(r)
		}
	default:
		// Transport-level knobs go to the transport whole: it decodes what
		// it understands and ignores the rest, so new control-tuple kinds
		// never widen the interface.
		_ = w.tr.Reconfigure(t)
	}
}

// sendSnapshot answers a SNAPSHOT_REQ (§3.5 state migration). Both
// handlers run on the processing goroutine, so components never see
// concurrent Execute/Snapshot/Restore calls. Non-stateful logic answers
// with an empty snapshot so the updater's collection never hangs.
func (w *Worker) sendSnapshot(req control.SnapshotReq) {
	resp := control.SnapshotResp{Token: req.Token, Worker: w.cfg.ID, Node: w.cfg.Node}
	if sc, ok := w.comp.(StatefulComponent); ok {
		state, err := sc.SnapshotState(w.ctx, KeyRange{From: req.From, To: req.To})
		if err == nil {
			resp.State = state
		}
	}
	_ = w.tr.SendControl(control.Encode(control.KindSnapshotResp, resp))
	_ = w.tr.Flush()
}

// restoreState applies a RESTORE (replace semantics) and acknowledges it.
func (w *Worker) restoreState(r control.Restore) {
	if sc, ok := w.comp.(StatefulComponent); ok {
		_ = sc.RestoreState(w.ctx, r.State)
	}
	_ = w.tr.SendControl(control.Encode(control.KindRestoreResp,
		control.RestoreResp{Token: r.Token, Worker: w.cfg.ID}))
	_ = w.tr.Flush()
}

// pushStats is the worker statistics reporter of Fig 4: unsolicited
// metrics toward the controller so overload is visible even when the
// worker's ingress path is congested.
func (w *Worker) pushStats() { w.sendMetrics(0) }

func (w *Worker) sendMetrics(token uint64) {
	w.publishTallies()
	s := w.StatsSnapshot()
	resp := control.MetricResp{
		Token:     token,
		Worker:    w.cfg.ID,
		Node:      w.cfg.Node,
		QueueLen:  s.QueueLen,
		Processed: s.Processed,
		Emitted:   s.Emitted,
		Dropped:   w.tr.Stats().Dropped,
		ProcNanos: s.ProcNanos,
	}
	_ = w.tr.SendControl(control.Encode(control.KindMetricResp, resp))
}

func (w *Worker) nonZeroRand() uint64 {
	for {
		if v := w.rng.Uint64(); v != 0 {
			return v
		}
	}
}

// isFrameworkStream reports whether a stream is owned by the framework
// (never tracked for guaranteed processing).
func isFrameworkStream(s tuple.StreamID) bool {
	return s == tuple.AckStream || s == tuple.CompleteStream ||
		s.IsControl() || s.IsSignal()
}
