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
	// GaveUp counts tracked source tuples dropped after their last replay
	// attempt expired: each emitted tree ends Completed or GaveUp.
	GaveUp    uint64
	Filtered  uint64
	QueueLen  int
	ProcNanos uint64
}

// DefaultFlushDeadline is the default bound on how long an emitted tuple may
// stay staged in the transport while the loop keeps working without a wait.
const DefaultFlushDeadline = time.Millisecond

// The worker goroutine waits in one of two places: a paced source dozes on
// its kernel timer (clock.Dozer); everything else waits in Transport.Recv,
// which wakes early on an incoming frame. After an iteration that did work
// it polls (wait 0). After one that did none:
//   - a source that did work within pacedFor flushes and dozes
//     sourceIdleWait at once, then polls. It does not poll for its next due
//     tuple first: with due tuples a few µs apart such a poll never ends, and
//     its clock reads were most of what a paced source's core did (39 % of
//     the CPU samples of fwd_local at a fifth of saturation, 2 vCPUs). A Go
//     timer that short ends about a millisecond late once the process is
//     idle (the runtime's epoll_pwait takes whole milliseconds); the dozer's
//     timerfd ends that epoll_pwait on time and holds no thread. A frame sent
//     to a dozing source (a control tuple, a COMPLETE) waits at most one
//     doze, about 200 µs.
//   - a source idle for pacedFor waits in Recv for sourceIdleWait, a bolt for
//     boltIdleWait. The backoff keeps idle sources cheap: a doze costs ~5 µs
//     of CPU, and eight idle sources that dozed forever used 0.23 cores,
//     against 0.03 waiting in Recv.
//
// Dozing costs a paced source neither its batches nor its rate. The flush
// before the doze makes every doze boundary a batch boundary: what falls due
// during a doze leaves as one burst when the doze ends, at most ~200 µs and
// on average ~100 µs after it fell due — sooner than in a frame that has to
// fill or wait out D (1 ms at 100 k tuples/s). A rate-limited source keeps
// its rate: the limiter's burst is 10 ms of tokens, which a doze refills
// without overflowing.
//
// A staged tuple never waits out a timer. Two things move it to the wire:
//   - the transport's batch threshold, owned by the transport;
//   - the loop's flush before a wait (flushIfDue with n = 0), wherever it is
//     about to block: run's doze or idle wait and awaitToken's rate-limit
//     wait. It runs on the block path only, never after an iteration that
//     did work, so a loop that keeps working still fills frames.
//
// The flush deadline D bounds only a loop that never waits: a source with a
// tuple due every iteration, or a long batch (see flushIfDue). Go timers
// below a millisecond return after about a millisecond in an idle process,
// so a sleep with output staged would hold each hop's tuples that long.
//
// What the loop pays, and how often:
//   - per tuple (execute, dispatch, EmitOn, Router.routeInto, Send): plain
//     single-goroutine work and atomic loads — no wall-clock read, select,
//     lock or allocation, and no subscription-map probe while the stream
//     repeats. (The rate-limit wait of a throttled worker is the exception,
//     off the unthrottled path.) An acked source tracks each tree in a slot
//     of its slab (see slotBits) and stamps it with the clock read
//     before the spout's Next, so it pays no map entry, heap box or clock
//     read per tuple either.
//   - per iteration: the stop/fail/hang checks (atomic loads), one Recv, one
//     wall-clock read in front of a non-empty batch and one after it; the
//     second drives the D flush gate and the replay scan, charges the batch
//     to procNanos and is followed by publishTallies. The staged acker
//     records leave then too, one tuple per acker (flushAcks). The loop
//     keeps no timer for the control plane: statistics leave only as the
//     answer to a METRIC_REQ.
//   - per coarse-clock tick (clock.CoarseGranularity) seen inside a batch:
//     onTick — one wall-clock read for the 2·D flush gate, and publishTallies,
//     so another goroutine's view of Processed/Emitted is never more than one
//     tick plus one Execute old however long the batch runs.
const (
	sourceIdleWait = 200 * time.Microsecond
	boltIdleWait   = time.Millisecond
	pacedFor       = 10 * time.Millisecond
)

// Acker records travel in batches. An AckStream tuple carries k ≥ 1 records
// of [kind, root, xor, src] (4·k fields); sendAck stages each record for the
// acker its root routes to, and flushAcks sends every acker's staged records
// as one tuple: at the end of every iteration, ahead of every transport flush
// the loop makes (flushIfDue) and on exit, so a record makes every flush a
// data tuple emitted beside it would make. A coarse tick alone does not send
// them: it would split the batch, and the transport would stage the pieces
// all the same. maxAckRecords caps a batch at about 2.3 KB encoded, well
// inside one frame, so a batch never needs the segmenting path.
const maxAckRecords = 64

// ackBatch is one acker's staged records. vals is reused batch after batch,
// which the Transport contract allows: Send keeps nothing of a tuple's
// Values once it returns.
type ackBatch struct {
	dest Destination
	vals []tuple.Value
}

// errStopping aborts a batch when Stop arrives during the rate-limit wait; the
// rest stays undispatched, like whatever is still queued in the transport.
var errStopping = errors.New("worker: stopping")

// An acked source tracks its tuple trees in a slab of pendingEntry values
// with a free list of slot indices. The low slotBits of a root name its slot
// and the high bits are random, so roots of different sources still differ
// at a shared acker and spread over the ackers by hash. COMPLETE finds a
// tree from its root alone, and a slot stores its whole root, so a stale
// root (from before a replay or a reuse of the slot) or a forged one
// misses. The slab is made by the first tracked emission, at firstSlots,
// and doubles whenever the free list runs dry, up to maxSlots; MaxPending
// keeps a source far below that.
const (
	slotBits   = 20
	maxSlots   = 1 << slotBits
	slotMask   = maxSlots - 1
	firstSlots = 64
)

// pendingEntry is one slot of the slab; root 0 marks a free slot.
type pendingEntry struct {
	root     uint64
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
	// processed, emitted and gaveUp, the coarse-clock value last acted on,
	// rate-limit waits inside the current batch, EmitOn's and the framework's
	// routing scratch (separate: an acked source routes its INIT between
	// routing a data tuple and sending it), and the last stream found
	// subscribed.
	nProcessed, nEmitted, nGaveUp uint64
	lastTick                      int64
	throttled                     time.Duration
	dests, sendDests              []Destination
	lastSub                       tuple.StreamID

	// Framework-layer state for guaranteed processing: a source's slab of
	// tracked trees, its free slots, how many are live and the stamp its
	// emissions take (read before each Next); the record sendAck routes and
	// the acker batches it is staged in (see maxAckRecords).
	rng     *rand.Rand
	curRoot uint64
	curXor  uint64
	anchor  bool
	slab    []pendingEntry
	free    []uint32
	live    int
	stamp   time.Time
	ackRec  [4]tuple.Value
	acks    []ackBatch

	// CompleteLatencies records end-to-end tuple latency observed at the
	// source when acking is enabled (Figs 8c/8d are its CDF).
	CompleteLatencies *metrics.Histogram

	processed atomic.Uint64
	emitted   atomic.Uint64
	completed atomic.Uint64
	replayed  atomic.Uint64
	gaveUp    atomic.Uint64
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
		stamp:             time.Now(),
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
		GaveUp:    w.gaveUp.Load(),
		Filtered:  w.filtered.Load(),
		QueueLen:  w.tr.InQueueLen(),
		ProcNanos: w.procNanos.Load(),
	}
}

func (w *Worker) run() {
	var failure error
	defer func() {
		w.flushAcks()
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
	idleWait := boltIdleWait
	var doze *clock.Dozer
	if spout != nil {
		idleWait = sourceIdleWait
		doze = clock.NewDozer()
		defer doze.Close()
	}
	lastWork := w.lastFlush // when the last iteration that did work ended
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
		if spout != nil && w.active.Load() && w.live < w.cfg.MaxPending {
			if w.rate.Allow() {
				if w.cfg.Acking {
					w.stamp = time.Now()
				}
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
		if w.cfg.Acking && w.cfg.Source && now.Sub(lastReplayScan) >= w.cfg.AckTimeout/4 {
			w.replayExpired(now)
			lastReplayScan = now
		}
		w.flushAcks()
		w.flushIfDue(now, 1)
		w.publishTallies()
		switch {
		case worked:
			lastWork, wait = now, 0
		case spout != nil && now.Sub(lastWork) < pacedFor:
			w.flushIfDue(now, 0)
			doze.Sleep(sourceIdleWait)
			wait = 0
		default:
			w.flushIfDue(now, 0)
			wait = idleWait
		}
	}
}

// flushIfDue flushes the transport once n deadlines have passed since the
// last flush; a negative deadline turns it off. The loop asks with n = 0
// wherever it is about to block, so no tuple waits out a timer. In a loop
// that does not wait it is the time bound on staging: n = 1 between batches
// bounds a source with a tuple due every iteration, and n = 2 inside a batch, at
// the first executed tuple after each coarse-clock tick (onTick), lets a
// burst that ends in time leave whole at the batch boundary while a batch
// that overstays (slow logic, the chaos Slow hook) is flushed all the same.
// There a staged tuple waits under two deadlines plus one coarse tick plus
// one Execute. Staged acker records go to the transport ahead of the flush.
func (w *Worker) flushIfDue(now time.Time, n int) {
	if every := w.cfg.FlushInterval; every > 0 && now.Sub(w.lastFlush) >= time.Duration(n)*every {
		w.flushAcks()
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
// (StatsSnapshot). The loop goroutine is the only writer of these counters.
func (w *Worker) publishTallies() {
	if w.processed.Load() != w.nProcessed {
		w.processed.Store(w.nProcessed)
	}
	if w.emitted.Load() != w.nEmitted {
		w.emitted.Store(w.nEmitted)
	}
	if w.gaveUp.Load() != w.nGaveUp {
		w.gaveUp.Store(w.nGaveUp)
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
		root, ok := w.track(s, values)
		if !ok {
			w.nGaveUp++ // the slab is full: the tree could not be tracked
			return
		}
		t.Root, t.ID = root, root
		w.sendAck(0, root, root, uint64(w.cfg.ID))
	}
	for _, d := range dests {
		_ = w.tr.Send(d, t)
		w.nEmitted++
	}
}

// send routes and sends a tuple the framework produced itself (a replay)
// through its own scratch, leaving EmitOn's intact.
func (w *Worker) send(t tuple.Tuple) {
	w.sendDests = w.rt.routeInto(w.sendDests[:0], t)
	for _, d := range w.sendDests {
		_ = w.tr.Send(d, t)
		w.nEmitted++
	}
}

// ackTuple builds the one kind of acker tuple: records of [kind, root, xor,
// src], four fields each.
func ackTuple(records []tuple.Value) tuple.Tuple {
	return tuple.OnStream(tuple.AckStream, records...)
}

// sendAck stages an acker record: kind 0 = INIT (with source worker), kind
// 1 = ACK. The record is routed by its root's hash, so a given tuple tree
// always meets the same acker, and joins that acker's batch.
func (w *Worker) sendAck(kind int64, root, xor, src uint64) {
	w.ackRec = [4]tuple.Value{tuple.Int(kind), tuple.Int(int64(root)), tuple.Int(int64(xor)), tuple.Int(int64(src))}
	w.sendDests = w.rt.routeInto(w.sendDests[:0], ackTuple(w.ackRec[:]))
	for _, d := range w.sendDests {
		b := w.ackBatchFor(d)
		b.vals = append(b.vals, w.ackRec[:]...)
		if len(b.vals) >= 4*maxAckRecords {
			w.sendAckBatch(b)
		}
	}
}

// ackBatchFor finds the staging batch of d's acker, adding one the first
// time this worker stages a record for it.
func (w *Worker) ackBatchFor(d Destination) *ackBatch {
	id := d.Workers[0]
	for i := range w.acks {
		if w.acks[i].dest.Workers[0] == id {
			return &w.acks[i]
		}
	}
	w.acks = append(w.acks, ackBatch{dest: d, vals: make([]tuple.Value, 0, 4*maxAckRecords)})
	return &w.acks[len(w.acks)-1]
}

// flushAcks sends every acker's staged records, one tuple per acker.
func (w *Worker) flushAcks() {
	for i := range w.acks {
		if len(w.acks[i].vals) > 0 {
			w.sendAckBatch(&w.acks[i])
		}
	}
}

func (w *Worker) sendAckBatch(b *ackBatch) {
	_ = w.tr.Send(b.dest, ackTuple(b.vals))
	w.nEmitted++
	b.vals = b.vals[:0]
}

// track takes a free slot of the slab for a new tree emitted on s, growing
// the slab when none is free, and returns the tree's root. It reports false
// only when the slab is full at maxSlots.
func (w *Worker) track(s tuple.StreamID, values []tuple.Value) (uint64, bool) {
	if len(w.free) == 0 && !w.growSlab() {
		return 0, false
	}
	slot := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	w.live++
	e := &w.slab[slot]
	*e = pendingEntry{root: w.rootFor(slot), stream: s, values: values, emitted: w.stamp}
	return e.root, true
}

// growSlab doubles the slab (or makes its first firstSlots) and frees the
// new slots, lowest on top; it reports false once the slab holds maxSlots.
func (w *Worker) growSlab() bool {
	n := len(w.slab)
	size := min(max(2*n, firstSlots), maxSlots)
	if size == n {
		return false
	}
	slab := make([]pendingEntry, size)
	copy(slab, w.slab)
	w.slab = slab
	for i := size - 1; i >= n; i-- {
		w.free = append(w.free, uint32(i))
	}
	return true
}

// rootFor draws a fresh root naming slot: random high bits, never 0.
func (w *Worker) rootFor(slot uint32) uint64 {
	for {
		if root := w.rng.Uint64()<<slotBits | uint64(slot); root != 0 {
			return root
		}
	}
}

// untrack frees the slot of a retired tree, dropping its values.
func (w *Worker) untrack(slot uint32) {
	w.slab[slot] = pendingEntry{}
	w.free = append(w.free, slot)
	w.live--
}

// handleComplete retires the trees a COMPLETE tuple names: [src, root…]. A
// root comes off the wire, so its slot is bounds-checked and the tree retires
// only on an exact root match.
func (w *Worker) handleComplete(t tuple.Tuple) {
	now := time.Now()
	var done uint64
	for i := 1; i < t.Len(); i++ {
		root := uint64(t.Values[i].AsInt())
		slot := root & slotMask
		if root == 0 || slot >= uint64(len(w.slab)) || w.slab[slot].root != root {
			continue
		}
		w.CompleteLatencies.Record(now.Sub(w.slab[slot].emitted))
		w.untrack(uint32(slot))
		done++
	}
	w.completed.Add(done)
}

// replayExpired walks the slab once per AckTimeout/4. An expired tree is
// replayed under a new root in the same slot, so a COMPLETE for its old root
// misses, or given up after its last attempt.
func (w *Worker) replayExpired(now time.Time) {
	const maxAttempts = 5
	for i := range w.slab {
		e := &w.slab[i]
		if e.root == 0 || now.Sub(e.emitted) < w.cfg.AckTimeout {
			continue
		}
		if e.attempts+1 >= maxAttempts {
			w.untrack(uint32(i))
			w.nGaveUp++
			continue
		}
		w.replayed.Add(1)
		e.root, e.emitted = w.rootFor(uint32(i)), now
		e.attempts++
		t := tuple.OnStream(e.stream, e.values...)
		t.Root, t.ID = e.root, e.root
		w.sendAck(0, e.root, e.root, uint64(w.cfg.ID))
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
		// the transport's.
		var b control.BatchSize
		if control.DecodePayload(t, &b) == nil {
			if b.FlushDeadline != 0 {
				w.cfg.FlushInterval = b.FlushDeadline
			}
			w.tr.SetBatchSize(b.Size)
		}
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
}

// restoreState applies a RESTORE (replace semantics) and acknowledges it.
func (w *Worker) restoreState(r control.Restore) {
	if sc, ok := w.comp.(StatefulComponent); ok {
		_ = sc.RestoreState(w.ctx, r.State)
	}
	_ = w.tr.SendControl(control.Encode(control.KindRestoreResp,
		control.RestoreResp{Token: r.Token, Worker: w.cfg.ID}))
}

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
		GaveUp:    s.GaveUp,
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
