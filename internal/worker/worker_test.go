package worker

import (
	"errors"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"typhoon/internal/clock"
	"typhoon/internal/control"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// seqSource emits consecutive integers up to a limit.
type seqSource struct {
	n     int64
	limit int64
}

func (s *seqSource) Open(*Context) error  { return nil }
func (s *seqSource) Close(*Context) error { return nil }
func (s *seqSource) Next(ctx *Context) (bool, error) {
	if s.limit > 0 && s.n >= s.limit {
		return false, nil
	}
	ctx.Emit(tuple.Int(s.n))
	s.n++
	return true, nil
}

// collector records everything it sees.
type collector struct {
	mu      sync.Mutex
	ints    []int64
	signals int
}

func (c *collector) Open(*Context) error  { return nil }
func (c *collector) Close(*Context) error { return nil }
func (c *collector) Execute(_ *Context, in tuple.Tuple) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if in.Stream.IsSignal() {
		c.signals++
		return nil
	}
	c.ints = append(c.ints, in.Field(0).AsInt())
	return nil
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ints)
}

// forwarder re-emits each input's first field.
type forwarder struct{}

func (forwarder) Open(*Context) error  { return nil }
func (forwarder) Close(*Context) error { return nil }
func (forwarder) Execute(ctx *Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	ctx.Emit(in.Field(0))
	return nil
}

// slowForwarder is a forwarder whose Execute takes delay, counts what it
// executed, and fails on call number failAt (0: never) without emitting.
type slowForwarder struct {
	delay    time.Duration
	failAt   int64
	executed atomic.Int64
}

func (f *slowForwarder) Open(*Context) error  { return nil }
func (f *slowForwarder) Close(*Context) error { return nil }
func (f *slowForwarder) Execute(ctx *Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	time.Sleep(f.delay)
	if n := f.executed.Add(1); n == f.failAt {
		return errors.New("boom")
	}
	ctx.Emit(in.Field(0))
	return nil
}

// faulty fails on the nth tuple.
type faulty struct{ after int }

func (f *faulty) Open(*Context) error  { return nil }
func (f *faulty) Close(*Context) error { return nil }
func (f *faulty) Execute(*Context, tuple.Tuple) error {
	f.after--
	if f.after <= 0 {
		return errors.New("boom")
	}
	return nil
}

// terminal consumes and emits nothing (for acking chains).
type terminal struct{ seen atomic.Int64 }

func (t *terminal) Open(*Context) error  { return nil }
func (t *terminal) Close(*Context) error { return nil }
func (t *terminal) Execute(_ *Context, in tuple.Tuple) error {
	if !in.Stream.IsSignal() {
		t.seen.Add(1)
	}
	return nil
}

func init() {
	RegisterLogic("test/collector", func() Component { return &collector{} })
	RegisterLogic("test/forwarder", func() Component { return forwarder{} })
	RegisterLogic("test/source", func() Component { return &seqSource{} })
}

// testAcker duplicates the XOR acker from internal/ack (which cannot be
// imported here without a cycle, since it imports this package).
type testAcker struct {
	pending map[uint64]*ackEntry
}

type ackEntry struct {
	xor  uint64
	src  int64
	init bool
}

func newTestAcker() *testAcker { return &testAcker{pending: map[uint64]*ackEntry{}} }

func (a *testAcker) Open(*Context) error  { return nil }
func (a *testAcker) Close(*Context) error { return nil }
func (a *testAcker) Execute(ctx *Context, in tuple.Tuple) error {
	if in.Stream != tuple.AckStream {
		return nil
	}
	for rec := in.Values; len(rec) >= 4; rec = rec[4:] {
		root := uint64(rec[1].AsInt())
		e := a.pending[root]
		if e == nil {
			e = &ackEntry{}
			a.pending[root] = e
		}
		e.xor ^= uint64(rec[2].AsInt())
		if rec[0].AsInt() == 0 {
			e.init = true
			e.src = rec[3].AsInt()
		}
		if e.init && e.xor == 0 {
			delete(a.pending, root)
			ctx.EmitOn(tuple.CompleteStream, tuple.Int(e.src), tuple.Int(int64(root)))
		}
	}
	return nil
}

func dataRoute(to topology.WorkerID, policy topology.RoutingPolicy) topology.Route {
	return topology.Route{
		Edge:     topology.EdgeSpec{From: "src", To: "dst", Policy: policy},
		NextHops: []topology.WorkerID{to},
	}
}

// startWorker builds and starts a worker with a dedicated logic instance.
func startWorker(t *testing.T, cfg Config, comp Component, tr Transport) *Worker {
	t.Helper()
	name := "test/inst/" + t.Name() + "/" + cfg.Node
	RegisterLogic(name, func() Component { return comp })
	cfg.Logic = name
	w, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	t.Cleanup(func() {
		if !w.stopped.Load() {
			w.Stop()
		}
	})
	return w
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before timeout")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestSourceToSinkPipeline(t *testing.T) {
	net := NewChanNetwork()
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, &seqSource{limit: 100}, net.Attach(1))

	waitFor(t, 5*time.Second, func() bool { return sink.count() == 100 })
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for i, v := range sink.ints {
		if v != int64(i) {
			t.Fatalf("ints[%d] = %d (order broken)", i, v)
		}
	}
}

// TestRoutingControlTupleRedirects: a ROUTING control tuple takes effect at
// one point in the source's order. seqSource emits consecutive integers, so
// once the source is quiet sink A must hold exactly 0..k-1 and sink B exactly
// k..n-1: nothing lost, duplicated or sent the old way after the switch.
func TestRoutingControlTupleRedirects(t *testing.T) {
	net := NewChanNetwork()
	sinkA, sinkB := &collector{}, &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "a"}, sinkA, net.Attach(2))
	startWorker(t, Config{App: 1, ID: 3, Node: "b"}, sinkB, net.Attach(3))
	// Paced well inside what a sink drains, so no ChanTransport inbox (which
	// drops when full) ever fills and every emitted integer arrives.
	startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true, RateLimit: 20000,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, &seqSource{}, net.Attach(1))
	ctl := net.Attach(99)
	toSrc := Destination{Workers: []topology.WorkerID{1}}

	waitFor(t, 5*time.Second, func() bool { return sinkA.count() > 50 })
	// Inject a ROUTING control tuple steering traffic to worker 3.
	_ = ctl.Send(toSrc, control.Encode(control.KindRouting, control.Routing{
		Routes: []topology.Route{dataRoute(3, topology.Shuffle)},
	}))
	waitFor(t, 5*time.Second, func() bool { return sinkB.count() > 50 })

	// Quiesce the source. The inbox is FIFO, so the METRIC_RESP is produced
	// after DEACTIVATE took effect and its Emitted is the final count.
	_ = ctl.Send(toSrc, control.Encode(control.KindDeactivate, nil))
	_ = ctl.Send(toSrc, control.Encode(control.KindMetricReq, control.MetricReq{Token: 1}))
	var mr control.MetricResp
	select {
	case resp := <-net.Control:
		if err := control.DecodePayload(resp, &mr); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no METRIC_RESP")
	}
	n := int(mr.Emitted)
	waitFor(t, 5*time.Second, func() bool { return sinkA.count()+sinkB.count() >= n })

	sinkA.mu.Lock()
	defer sinkA.mu.Unlock()
	sinkB.mu.Lock()
	defer sinkB.mu.Unlock()
	k := len(sinkA.ints)
	if k+len(sinkB.ints) != n {
		t.Fatalf("A has %d and B %d of %d emitted", k, len(sinkB.ints), n)
	}
	for i, v := range sinkA.ints {
		if v != int64(i) {
			t.Fatalf("A[%d] = %d, want %d (A holds exactly what was emitted before the reroute)", i, v, i)
		}
	}
	for i, v := range sinkB.ints {
		if v != int64(k+i) {
			t.Fatalf("B[%d] = %d, want %d (B holds exactly what was emitted after the reroute)", i, v, k+i)
		}
	}
}

func TestActivateDeactivate(t *testing.T) {
	net := NewChanNetwork()
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, &seqSource{}, net.Attach(1))
	ctl := net.Attach(99)

	waitFor(t, 5*time.Second, func() bool { return sink.count() > 10 })
	_ = ctl.Send(Destination{Workers: []topology.WorkerID{1}}, control.Encode(control.KindDeactivate, nil))
	time.Sleep(50 * time.Millisecond)
	n := sink.count()
	time.Sleep(100 * time.Millisecond)
	if sink.count()-n > 5 {
		t.Fatalf("source still emitting after DEACTIVATE (+%d)", sink.count()-n)
	}
	_ = ctl.Send(Destination{Workers: []topology.WorkerID{1}}, control.Encode(control.KindActivate, nil))
	waitFor(t, 5*time.Second, func() bool { return sink.count() > n+100 })
}

func TestInputRateControl(t *testing.T) {
	net := NewChanNetwork()
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true, RateLimit: 100,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, &seqSource{}, net.Attach(1))

	time.Sleep(500 * time.Millisecond)
	got := sink.count()
	// 100/s for 0.5 s ≈ 50 tuples; allow generous slack plus burst.
	if got < 20 || got > 120 {
		t.Fatalf("rate-limited source delivered %d tuples in 500ms", got)
	}
}

func TestMetricRequestResponse(t *testing.T) {
	net := NewChanNetwork()
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, &seqSource{limit: 50}, net.Attach(1))
	waitFor(t, 5*time.Second, func() bool { return sink.count() == 50 })

	ctl := net.Attach(99)
	_ = ctl.Send(Destination{Workers: []topology.WorkerID{1}},
		control.Encode(control.KindMetricReq, control.MetricReq{Token: 77}))
	select {
	case resp := <-net.Control:
		kind, err := control.DecodeKind(resp)
		if err != nil || kind != control.KindMetricResp {
			t.Fatalf("kind=%v err=%v", kind, err)
		}
		var mr control.MetricResp
		if err := control.DecodePayload(resp, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Token != 77 || mr.Worker != 1 || mr.Node != "src" || mr.Emitted < 50 {
			t.Fatalf("resp = %+v", mr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no METRIC_RESP")
	}
}

func TestSignalReachesApplicationLayer(t *testing.T) {
	net := NewChanNetwork()
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	ctl := net.Attach(99)
	_ = ctl.Send(Destination{Workers: []topology.WorkerID{2}}, control.Encode(control.KindSignal, nil))
	waitFor(t, 5*time.Second, func() bool {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return sink.signals == 1
	})
}

// stagingTransport holds every Send until Flush, like a transport whose
// batch threshold is out of reach: only the worker loop's flushes (or Stop's
// final flush) can move a tuple. It stages a copy of each tuple's values, as
// the Transport contract requires. flushes records the size of every
// non-empty Flush; read it only once the worker has stopped.
type stagingTransport struct {
	*ChanTransport
	staged  []stagedSend
	flushes []int
}

type stagedSend struct {
	d  Destination
	in tuple.Tuple
}

func (s *stagingTransport) Send(d Destination, in tuple.Tuple) error {
	in.Values = slices.Clone(in.Values)
	s.staged = append(s.staged, stagedSend{d, in})
	return nil
}

func (s *stagingTransport) Flush() error {
	if len(s.staged) > 0 {
		s.flushes = append(s.flushes, len(s.staged))
	}
	for _, st := range s.staged {
		_ = s.ChanTransport.Send(st.d, st.in)
	}
	s.staged = s.staged[:0]
	return nil
}

// TestFlushDeadline pins the one time bound on staging, owned by the worker
// loop: the default moves staged tuples on its own, a negative deadline
// leaves them staged until a BATCH_SIZE control tuple retunes it live or
// Stop's final flush pushes them out.
func TestFlushDeadline(t *testing.T) {
	const n = 20
	start := func(t *testing.T, deadline time.Duration) (*ChanNetwork, *Worker, *collector) {
		net := NewChanNetwork()
		sink := &collector{}
		startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
		src := startWorker(t, Config{
			App: 1, ID: 1, Node: "src", Source: true, FlushInterval: deadline,
			Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
		}, &seqSource{limit: n}, &stagingTransport{ChanTransport: net.Attach(1)})
		return net, src, sink
	}
	staged := func(t *testing.T, src *Worker, sink *collector) {
		t.Helper()
		waitFor(t, 5*time.Second, func() bool { return src.StatsSnapshot().Emitted == n })
		time.Sleep(20 * DefaultFlushDeadline)
		if got := sink.count(); got != 0 {
			t.Fatalf("deadline disabled, yet %d tuples left the transport", got)
		}
	}
	t.Run("default", func(t *testing.T) {
		_, _, sink := start(t, 0)
		waitFor(t, 5*time.Second, func() bool { return sink.count() == n })
	})
	t.Run("disabled until Stop", func(t *testing.T) {
		_, src, sink := start(t, -1)
		staged(t, src, sink)
		src.Stop()
		waitFor(t, 5*time.Second, func() bool { return sink.count() == n })
	})
	t.Run("disabled then retuned", func(t *testing.T) {
		net, src, sink := start(t, -1)
		staged(t, src, sink)
		_ = net.Attach(99).Send(Destination{Workers: []topology.WorkerID{1}},
			control.Encode(control.KindBatchSize, control.BatchSize{FlushDeadline: 2 * time.Millisecond}))
		waitFor(t, 5*time.Second, func() bool { return sink.count() == n })
	})
}

// TestFlushDeadlineInsideBatch: the bound holds while the loop is inside one
// received batch. A forwarder throttled to 100 tuples/s takes 400 ms over a
// 40-tuple batch; what it emits for the first tuple must leave on the
// deadline, not when the batch is done.
func TestFlushDeadlineInsideBatch(t *testing.T) {
	const n = 40
	net := NewChanNetwork()
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 3, Node: "sink"}, sink, net.Attach(3))
	in := net.Attach(2)
	feed := net.Attach(99)
	for i := 0; i < n; i++ {
		_ = feed.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(int64(i))))
	}
	// The whole batch is queued before the worker starts: one Recv takes it.
	begin := time.Now()
	fwd := startWorker(t, Config{
		App: 1, ID: 2, Node: "fwd", RateLimit: 100,
		Routes: []topology.Route{dataRoute(3, topology.Shuffle)},
	}, forwarder{}, &stagingTransport{ChanTransport: in})
	waitFor(t, 5*time.Second, func() bool { return sink.count() > 0 })
	if done := fwd.StatsSnapshot().Processed; done >= n/2 {
		t.Fatalf("first tuple left after %v with %d of %d dispatched; want it out on the deadline",
			time.Since(begin), done, n)
	}
}

// preloaded starts comp as worker 2 ("fwd", forwarding to a collector at
// worker 3) over a stagingTransport whose inbox already holds n integers, so
// the worker's first Recv takes them as one batch.
func preloaded(t *testing.T, n int, cfg Config, comp Component) (*Worker, *collector) {
	t.Helper()
	net := NewChanNetwork()
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 3, Node: "sink"}, sink, net.Attach(3))
	in := net.Attach(2)
	feed := net.Attach(99)
	for i := 0; i < n; i++ {
		_ = feed.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(int64(i))))
	}
	cfg.App, cfg.ID, cfg.Node = 1, 2, "fwd"
	cfg.Routes = []topology.Route{dataRoute(3, topology.Shuffle)}
	return startWorker(t, cfg, comp, &stagingTransport{ChanTransport: in}), sink
}

// TestFlushDeadlineSlowExecute: the in-batch bound is checked once per coarse
// tick, not per tuple, and still holds when it is Execute that is slow. A
// forwarder taking 3 ms a tuple spends 120 ms in a 40-tuple batch; what the
// first tuple emitted is staged at 3 ms and must leave within two deadlines
// plus one tick plus one Execute of that, not when the batch is done.
func TestFlushDeadlineSlowExecute(t *testing.T) {
	const n = 40
	fwd := &slowForwarder{delay: 3 * time.Millisecond}
	_, sink := preloaded(t, n, Config{}, fwd)
	waitFor(t, 5*time.Second, func() bool { return sink.count() > 0 })
	// The bound is 2·D + clock.CoarseGranularity + one Execute = 5.5 ms, two
	// Executes; the rest of the allowance is scheduling and the 2 ms poll.
	if done := fwd.executed.Load(); done >= n/4 {
		t.Fatalf("first tuple left with %d of %d executed; want it out on the deadline", done, n)
	}
}

// TestProcNanosExcludesThrottleWait: processing time is charged per batch, so
// the time a throttled batch spends waiting for tokens must come back out.
// Twenty tuples at 100/s hold one batch for 200 ms of which almost none is
// processing.
func TestProcNanosExcludesThrottleWait(t *testing.T) {
	const n = 20
	fwd, sink := preloaded(t, n, Config{RateLimit: 100}, forwarder{})
	// The last tuple leaves on a flush after the batch has been charged.
	waitFor(t, 5*time.Second, func() bool { return sink.count() == n })
	if got := time.Duration(fwd.StatsSnapshot().ProcNanos); got <= 0 || got >= 20*time.Millisecond {
		t.Fatalf("ProcNanos = %v for a throttled batch of trivial Executes; want (0, 20ms)", got)
	}
}

// TestNothingStagedAcrossAWait pins the loop's rule that it never blocks with
// tuples staged: with the deadline at an hour, only the flush before a wait
// can move a tuple, and each case must see its output well inside one idle
// wait's worth of timer slack.
func TestNothingStagedAcrossAWait(t *testing.T) {
	const soon = 100 * time.Millisecond
	t.Run("bolt", func(t *testing.T) {
		_, sink := preloaded(t, 1, Config{FlushInterval: time.Hour}, forwarder{})
		waitFor(t, soon, func() bool { return sink.count() == 1 })
	})
	t.Run("source", func(t *testing.T) {
		net := NewChanNetwork()
		sink := &collector{}
		startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
		startWorker(t, Config{
			App: 1, ID: 1, Node: "src", Source: true, FlushInterval: time.Hour,
			Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
		}, &seqSource{limit: 1}, &stagingTransport{ChanTransport: net.Attach(1)})
		waitFor(t, soon, func() bool { return sink.count() == 1 })
	})
	t.Run("rate-limit wait", func(t *testing.T) {
		// At 10 tuples/s the second token is 100 ms behind the first: the
		// first output must leave before the loop sleeps for it.
		fwd, sink := preloaded(t, 2, Config{FlushInterval: time.Hour, RateLimit: 10}, forwarder{})
		waitFor(t, 5*time.Second, func() bool { return sink.count() > 0 })
		if done := fwd.StatsSnapshot().Processed; done >= 2 {
			t.Fatalf("first output left with %d tuples processed; want it out before the second token", done)
		}
	})
}

// TestBusyLoopStillBatches: the flush before a wait runs on the block path
// only. A source with 50 tuples due back to back never waits between them, so
// they leave in one flush, when it goes idle — not one flush per iteration.
func TestBusyLoopStillBatches(t *testing.T) {
	const n = 50
	net := NewChanNetwork()
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	tr := &stagingTransport{ChanTransport: net.Attach(1)}
	src := startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true, FlushInterval: time.Hour,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, &seqSource{limit: n}, tr)
	waitFor(t, 5*time.Second, func() bool { return sink.count() == n })
	src.Stop()
	if len(tr.flushes) != 1 || tr.flushes[0] != n {
		t.Fatalf("non-empty flushes = %v, want one of %d", tr.flushes, n)
	}
}

// recvLog is a Transport that records the wait of every Recv.
type recvLog struct {
	Transport
	mu    sync.Mutex
	calls []recvCall
}

type recvCall struct {
	at   time.Time
	wait time.Duration
}

func (r *recvLog) Recv(max int, wait time.Duration) ([]tuple.Tuple, error) {
	r.mu.Lock()
	r.calls = append(r.calls, recvCall{time.Now(), wait})
	r.mu.Unlock()
	return r.Transport.Recv(max, wait)
}

// waitedAfter reports whether the last Recv waited, at least d after the
// first Recv.
func (r *recvLog) waitedAfter(d time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.calls) == 0 {
		return false
	}
	last := r.calls[len(r.calls)-1]
	return last.wait > 0 && last.at.Sub(r.calls[0].at) >= d
}

// pacedSpout emits one tuple every `every` for `span` after its first Next,
// then nothing. last is its last emission; read it once the worker stopped.
type pacedSpout struct {
	every, span time.Duration
	first, last time.Time
	n           int64
}

func (s *pacedSpout) Open(*Context) error  { return nil }
func (s *pacedSpout) Close(*Context) error { return nil }
func (s *pacedSpout) Next(ctx *Context) (bool, error) {
	now := time.Now()
	if s.first.IsZero() {
		s.first = now
	}
	if now.Sub(s.first) > s.span || now.Sub(s.last) < s.every {
		return false, nil
	}
	ctx.Emit(tuple.Int(s.n))
	s.n++
	s.last = now
	return true, nil
}

// TestPacedSourceDozes: a source paced by its spout dozes between due tuples
// and never waits in Recv, whose sub-millisecond timer would end a
// millisecond late; pacedFor after its last emission it waits in Recv again.
func TestPacedSourceDozes(t *testing.T) {
	net := NewChanNetwork()
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	tr := &recvLog{Transport: net.Attach(1)}
	sp := &pacedSpout{every: 500 * time.Microsecond, span: 20 * time.Millisecond}
	src := startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, sp, tr)
	waitFor(t, 5*time.Second, func() bool { return tr.waitedAfter(sp.span) })
	src.Stop()

	if sp.n < 10 {
		t.Fatalf("spout emitted %d tuples in %v, want it paced every %v", sp.n, sp.span, sp.every)
	}
	for _, c := range tr.calls {
		if c.wait == 0 {
			continue
		}
		if c.at.Before(sp.last.Add(pacedFor)) {
			t.Fatalf("Recv waited %v at %v after the last emission, want polls only within %v",
				c.wait, c.at.Sub(sp.last), pacedFor)
		}
		if c.wait != sourceIdleWait {
			t.Fatalf("idle source waited %v in Recv, want %v", c.wait, sourceIdleWait)
		}
	}
}

// TestDozingSourceHearsControl: a frame sent to a dozing source waits at most
// one doze. A source paced by its rate limit dozes between tokens; the
// METRIC_REQ behind a DEACTIVATE must be answered within 5 ms (the median of
// five rounds, so that one round descheduled on a loaded machine does not
// decide it), and nothing is emitted after the answer.
func TestDozingSourceHearsControl(t *testing.T) {
	net := NewChanNetwork()
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	src := startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true, RateLimit: 2000,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, &seqSource{}, net.Attach(1))
	ctl := net.Attach(99)
	toSrc := Destination{Workers: []topology.WorkerID{1}}

	var took []time.Duration
	var mr control.MetricResp
	for round := 1; round <= 5; round++ {
		_ = ctl.Send(toSrc, control.Encode(control.KindActivate, nil))
		n := sink.count()
		waitFor(t, 5*time.Second, func() bool { return sink.count() > n+30 })
		begin := time.Now()
		_ = ctl.Send(toSrc, control.Encode(control.KindDeactivate, nil))
		_ = ctl.Send(toSrc, control.Encode(control.KindMetricReq, control.MetricReq{Token: uint64(round)}))
		select {
		case resp := <-net.Control:
			took = append(took, time.Since(begin))
			if err := control.DecodePayload(resp, &mr); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no METRIC_RESP")
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := src.StatsSnapshot().Emitted; got != mr.Emitted {
		t.Fatalf("Emitted %d after DEACTIVATE was answered with %d", got, mr.Emitted)
	}
	slices.Sort(took)
	if took[len(took)/2] > 5*time.Millisecond {
		t.Fatalf("dozing source answered in %v, want a median within 5ms", took)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestSourceDozersClosed: a source's dozer is a file descriptor while the
// source runs, and every way out of the loop gives it back.
func TestSourceDozersClosed(t *testing.T) {
	const n = 20
	// The runtime's netpoller opens descriptors of its own on first use.
	warm := clock.NewDozer()
	warm.Sleep(time.Microsecond)
	_ = warm.Close()
	for _, c := range []struct {
		name string
		stop func(*Worker)
	}{
		{"Stop", (*Worker).Stop},
		{"Fail", func(w *Worker) { w.Fail(nil); w.Wait() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := openFDs(t)
			net := NewChanNetwork()
			ws := make([]*Worker, n)
			for i := range ws {
				id := topology.WorkerID(i + 1)
				w, err := New(Config{App: 1, ID: id, Node: "src", Logic: "test/source", Source: true,
					RateLimit: 1000}, net.Attach(id))
				if err != nil {
					t.Fatal(err)
				}
				w.Start()
				ws[i] = w
			}
			waitFor(t, 5*time.Second, func() bool { return openFDs(t) >= base+n })
			for _, w := range ws {
				c.stop(w)
			}
			if got := openFDs(t); got != base {
				t.Fatalf("%d open fds after %d sources stopped, want %d", got, n, base)
			}
		})
	}
}

// TestStatsVisibleInsideSlowBatch: Processed and Emitted are tallied on the
// worker goroutine and published per iteration and per coarse tick, so other
// goroutines see them move while a long batch is still executing, and every
// way out of the loop leaves them exact.
func TestStatsVisibleInsideSlowBatch(t *testing.T) {
	final := func(t *testing.T, w *Worker, f *slowForwarder, emitted int64) {
		t.Helper()
		w.Wait()
		s, done := w.StatsSnapshot(), f.executed.Load()
		if int64(s.Processed) != done || int64(s.Emitted) != emitted {
			t.Fatalf("final Processed/Emitted = %d/%d, want %d/%d", s.Processed, s.Emitted, done, emitted)
		}
	}
	t.Run("slow batch then Stop", func(t *testing.T) {
		const n = 30
		f := &slowForwarder{delay: 2 * time.Millisecond}
		w, _ := preloaded(t, n, Config{}, f)
		waitFor(t, 5*time.Second, func() bool { return w.StatsSnapshot().Processed > 0 })
		if done := f.executed.Load(); done >= n {
			t.Fatalf("Processed first moved with all %d executed; want it visible inside the batch", done)
		}
		// Publication trails execution by at most a tick plus an Execute:
		// here every Execute outlasts a tick, so by at most one tuple.
		waitFor(t, 5*time.Second, func() bool {
			done := f.executed.Load()
			return done == n || int64(w.StatsSnapshot().Processed) >= done-1
		})
		w.Stop() // returns once the batch is through
		final(t, w, f, n)
	})
	t.Run("Execute error inside the batch", func(t *testing.T) {
		f := &slowForwarder{failAt: 5}
		w, _ := preloaded(t, 30, Config{}, f)
		final(t, w, f, 4)
		if w.ExitErr() == nil {
			t.Fatal("worker exited clean on an Execute error")
		}
	})
	t.Run("Stop inside a throttled batch", func(t *testing.T) {
		const n = 30
		f := &slowForwarder{}
		w, _ := preloaded(t, n, Config{RateLimit: 200}, f)
		waitFor(t, 5*time.Second, func() bool { return w.StatsSnapshot().Processed >= 2 })
		w.Stop()
		if done := f.executed.Load(); done >= n {
			t.Fatalf("all %d executed; Stop should have cut the batch short", done)
		}
		final(t, w, f, f.executed.Load())
	})
}

// sendLog records the destination, stream and field count of every Send and
// keeps nothing of the tuple, so recording allocates nothing once sends has
// grown. Read it only once the worker has stopped, or when no loop runs.
type sendLog struct {
	Transport
	sends []sent
}

type sent struct {
	d      Destination
	stream tuple.StreamID
	fields int
}

func (s *sendLog) Send(d Destination, in tuple.Tuple) error {
	s.sends = append(s.sends, sent{d, in.Stream, len(in.Values)})
	return nil
}

// ackRoute sends acker records to worker to, by their root.
func ackRoute(to topology.WorkerID) topology.Route {
	return topology.Route{
		Edge:     topology.EdgeSpec{From: "*", To: "__acker", Policy: topology.Fields, HashFields: []int{1}, Stream: tuple.AckStream},
		NextHops: []topology.WorkerID{to},
	}
}

// TestEmitPathAllocFree: emitting on the unacked path allocates nothing —
// the route table is a snapshot read without a lock and destinations land in
// a scratch slice the worker owns. The acked-source case pins the one hazard
// of that scratch: the INIT an acked source routes between routing a data
// tuple and sending it must not overwrite the data tuple's destinations; and
// it pins that the INIT is staged, not sent, and that staging and sending a
// record batch allocate nothing.
func TestEmitPathAllocFree(t *testing.T) {
	// No loop runs here, so sends holds the sends of the emissions since it
	// was last cut back.
	newWorker := func(t *testing.T, cfg Config) (*Worker, *sendLog) {
		t.Helper()
		tr := &sendLog{Transport: NewChanNetwork().Attach(1)}
		cfg.App, cfg.ID, cfg.Node, cfg.Logic = 1, 1, "emitter", "test/forwarder"
		if cfg.Source {
			cfg.Logic = "test/source"
		}
		w, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return w, tr
	}
	hops := []topology.WorkerID{2, 3, 4}
	for _, c := range []struct {
		name      string
		edge      topology.EdgeSpec
		broadcast bool
	}{
		{"shuffle", topology.EdgeSpec{Policy: topology.Shuffle}, false},
		{"fields", topology.EdgeSpec{Policy: topology.Fields, HashFields: []int{0}}, false},
		{"all", topology.EdgeSpec{Policy: topology.All}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, tr := newWorker(t, Config{Routes: []topology.Route{{Edge: c.edge, NextHops: hops}}})
			vals := []tuple.Value{tuple.String("key"), tuple.Int(7)}
			allocs := testing.AllocsPerRun(1000, func() {
				tr.sends = tr.sends[:0]
				w.Emit(vals...)
			})
			if allocs != 0 {
				t.Fatalf("Emit allocates %.2f objects per tuple, want 0", allocs)
			}
			if len(tr.sends) != 1 {
				t.Fatalf("sends = %+v, want one", tr.sends)
			}
			d, want := tr.sends[0].d, 1
			if c.broadcast {
				want = len(hops)
			}
			if d.Broadcast != c.broadcast || len(d.Workers) != want {
				t.Fatalf("destination = %+v", d)
			}
		})
	}
	t.Run("acked source", func(t *testing.T) {
		w, tr := newWorker(t, Config{Source: true, Acking: true, Routes: []topology.Route{
			dataRoute(2, topology.Shuffle), ackRoute(3),
		}})
		w.Emit(tuple.Int(5))
		if len(tr.sends) != 1 || tr.sends[0].stream != tuple.DefaultStream || tr.sends[0].d.Workers[0] != 2 {
			t.Fatalf("Emit sent %+v, want the data tuple alone, to worker 2", tr.sends)
		}
		w.flushAcks() // the end of the loop iteration
		if len(tr.sends) != 2 {
			t.Fatalf("sends = %+v, want the data tuple, then the INIT", tr.sends)
		}
		if init := tr.sends[1]; init.stream != tuple.AckStream || init.fields != 4 ||
			len(init.d.Workers) != 1 || init.d.Workers[0] != 3 {
			t.Fatalf("INIT send = %+v, want one 4-field record to worker 3", init)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			tr.sends = tr.sends[:0]
			w.sendAck(1, 7, 7, 0)
			w.flushAcks()
		})
		if allocs != 0 {
			t.Fatalf("staging and sending a record allocates %.2f objects, want 0", allocs)
		}
		if len(tr.sends) != 1 || tr.sends[0].stream != tuple.AckStream || tr.sends[0].fields != 4 {
			t.Fatalf("sends = %+v, want one record batch", tr.sends)
		}
	})
}

// burstSpout emits n tuples from its first Next and nothing after.
type burstSpout struct{ n int }

func (s *burstSpout) Open(*Context) error  { return nil }
func (s *burstSpout) Close(*Context) error { return nil }
func (s *burstSpout) Next(ctx *Context) (bool, error) {
	if s.n == 0 {
		return false, nil
	}
	for ; s.n > 0; s.n-- {
		ctx.Emit(tuple.Int(int64(s.n)))
	}
	return true, nil
}

// anchoredFeed queues n tracked tuples (roots 1…n) for worker to, so that its
// first Recv takes them as one batch.
func anchoredFeed(net *ChanNetwork, to topology.WorkerID, n int) {
	feed := net.Attach(99)
	for i := 1; i <= n; i++ {
		tp := tuple.New(tuple.Int(int64(i)))
		tp.Root, tp.ID = uint64(i), uint64(i)
		_ = feed.Send(Destination{Workers: []topology.WorkerID{to}}, tp)
	}
}

// TestAckRecordsBatchPerIteration: acker records leave once per loop
// iteration, at most maxAckRecords to a tuple, and Emitted counts each batch
// as one tuple. A source emitting 200 tuples in one Next sends ⌈200/64⌉ = 4
// AckStream tuples carrying the 200 INITs; a bolt acking the 256 inputs of
// one Recv sends 4 carrying the 256 ACKs.
func TestAckRecordsBatchPerIteration(t *testing.T) {
	check := func(t *testing.T, tr *sendLog, records int) {
		t.Helper()
		var batches, fields int
		for _, s := range tr.sends {
			if s.stream != tuple.AckStream {
				continue
			}
			if s.fields == 0 || s.fields%4 != 0 || s.fields > 4*maxAckRecords || s.d.Workers[0] != 3 {
				t.Fatalf("ack send %+v: want 1…%d whole records for worker 3", s, maxAckRecords)
			}
			batches++
			fields += s.fields
		}
		if want := (records + maxAckRecords - 1) / maxAckRecords; batches != want || fields != 4*records {
			t.Fatalf("%d ack tuples carrying %d records, want %d carrying %d", batches, fields/4, want, records)
		}
	}
	t.Run("source", func(t *testing.T) {
		const n = 200
		tr := &sendLog{Transport: NewChanNetwork().Attach(1)}
		src := startWorker(t, Config{
			App: 1, ID: 1, Node: "src", Source: true, Acking: true, AckTimeout: time.Hour,
			Routes: []topology.Route{dataRoute(2, topology.Shuffle), ackRoute(3)},
		}, &burstSpout{n: n}, tr)
		waitFor(t, 5*time.Second, func() bool { return src.StatsSnapshot().Emitted == n+4 })
		src.Stop()
		check(t, tr, n)
	})
	t.Run("bolt", func(t *testing.T) {
		const n = 256
		net := NewChanNetwork()
		tr := &sendLog{Transport: net.Attach(2)}
		anchoredFeed(net, 2, n)
		w := startWorker(t, Config{
			App: 1, ID: 2, Node: "sink", Acking: true, FlushInterval: time.Hour,
			Routes: []topology.Route{ackRoute(3)},
		}, &terminal{}, tr)
		waitFor(t, 5*time.Second, func() bool { return w.StatsSnapshot().Emitted == 4 })
		w.Stop()
		check(t, tr, n)
	})
}

// TestAckRecordsLeaveWithTheirBatch: a throttled acked bolt stages the ACK of
// every tuple it executes. With a flush deadline the records reach the acker
// while the bolt waits for its next token; with the deadline off they leave
// on Stop.
func TestAckRecordsLeaveWithTheirBatch(t *testing.T) {
	const n = 5
	// records drains the acker's inbox and counts the records it received.
	records := func(acker *ChanTransport) int {
		got := 0
		for {
			ts, _ := acker.Recv(256, 0)
			if len(ts) == 0 {
				return got
			}
			for _, a := range ts {
				got += a.Len() / 4
			}
		}
	}
	start := func(t *testing.T, deadline time.Duration) (*Worker, *ChanTransport) {
		net := NewChanNetwork()
		acker := net.Attach(3)
		in := net.Attach(2)
		anchoredFeed(net, 2, n)
		w := startWorker(t, Config{
			App: 1, ID: 2, Node: "sink", Acking: true, RateLimit: 20, FlushInterval: deadline,
			Routes: []topology.Route{ackRoute(3)},
		}, &terminal{}, &stagingTransport{ChanTransport: in})
		return w, acker
	}
	t.Run("awaitToken", func(t *testing.T) {
		w, acker := start(t, 0)
		got := 0
		waitFor(t, 5*time.Second, func() bool { got += records(acker); return got > 0 })
		if done := w.StatsSnapshot().Processed; done >= n {
			t.Fatalf("first record arrived with all %d tuples processed; want it out before a token wait", done)
		}
		w.Stop()
		if got += records(acker); uint64(got) != w.StatsSnapshot().Processed {
			t.Fatalf("acker received %d records for %d processed tuples", got, w.StatsSnapshot().Processed)
		}
	})
	t.Run("Stop", func(t *testing.T) {
		w, acker := start(t, -1)
		waitFor(t, 5*time.Second, func() bool { return w.StatsSnapshot().Processed >= 2 })
		if got := records(acker); got != 0 {
			t.Fatalf("%d records left with every flush off", got)
		}
		w.Stop()
		if got := records(acker); uint64(got) != w.StatsSnapshot().Processed {
			t.Fatalf("acker received %d records on Stop for %d processed tuples", got, w.StatsSnapshot().Processed)
		}
	})
}

// TestChanTransportDoesNotAliasValues: Send keeps nothing of the tuple's
// values, so a sender may reuse the slice as soon as Send returns.
func TestChanTransportDoesNotAliasValues(t *testing.T) {
	net := NewChanNetwork()
	src, dst := net.Attach(1), net.Attach(2)
	vals := []tuple.Value{tuple.Int(1), tuple.Int(2)}
	_ = src.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(vals...))
	vals[0], vals[1] = tuple.Int(3), tuple.Int(4)
	got, err := dst.Recv(1, time.Second)
	if err != nil || len(got) != 1 {
		t.Fatalf("Recv = %v, %v", got, err)
	}
	if a, b := got[0].Field(0).AsInt(), got[0].Field(1).AsInt(); a != 1 || b != 2 {
		t.Fatalf("received (%d, %d), want (1, 2): the sender's reuse reached the receiver", a, b)
	}
}

// TestStopBehindRateLimit: Stop must not wait out the input rate limiter. A
// sink at 0.5 tuples/s with five tuples in hand would otherwise take ~10 s.
func TestStopBehindRateLimit(t *testing.T) {
	net := NewChanNetwork()
	tr := net.Attach(2)
	sink := &collector{}
	w := startWorker(t, Config{App: 1, ID: 2, Node: "sink", RateLimit: 0.5}, sink, tr)
	feed := net.Attach(99)
	for i := 0; i < 5; i++ {
		_ = feed.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(int64(i))))
	}
	// The worker has taken the batch and sits in the rate-limit wait.
	waitFor(t, 5*time.Second, func() bool { return tr.Stats().TuplesReceived > 0 })
	begin := time.Now()
	w.Stop()
	if took := time.Since(begin); took > 200*time.Millisecond {
		t.Fatalf("Stop took %v behind the rate limiter", took)
	}
	if got := sink.count(); got == 5 {
		t.Fatal("whole batch dispatched; Stop should leave the rest undispatched")
	}
}

func TestBatchSizeControl(t *testing.T) {
	net := NewChanNetwork()
	tr := net.Attach(2)
	w := startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, &collector{}, tr)
	ctl := net.Attach(99)
	_ = ctl.Send(Destination{Workers: []topology.WorkerID{2}},
		control.Encode(control.KindBatchSize, control.BatchSize{Size: 777}))
	// ChanTransport ignores batch size; this verifies the control path
	// doesn't crash and the worker stays healthy.
	time.Sleep(50 * time.Millisecond)
	if w.ExitErr() != nil {
		t.Fatal(w.ExitErr())
	}

	// A deadline-only BATCH_SIZE tuple (Size 0) is forwarded to the transport
	// too and must leave its count threshold alone.
	_, srcTr, sinkTrs := newSwitchEnv(t, 1)
	sinkTrs[0].SetBatchSize(42)
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sdnsink"}, sink, sinkTrs[0])
	to := Destination{Workers: []topology.WorkerID{2}}
	_ = srcTr.Send(to, control.Encode(control.KindBatchSize, control.BatchSize{FlushDeadline: 2 * time.Millisecond}))
	_ = srcTr.Send(to, tuple.New(tuple.Int(1)))
	_ = srcTr.Flush()
	// Frames keep their order, so the data tuple arrives after the control.
	waitFor(t, 5*time.Second, func() bool { return sink.count() == 1 })
	if got := sinkTrs[0].BatchSize(); got != 42 {
		t.Fatalf("deadline-only BATCH_SIZE changed the threshold to %d", got)
	}
}

func TestExecuteErrorCrashesWorker(t *testing.T) {
	net := NewChanNetwork()
	exited := make(chan error, 1)
	startWorker(t, Config{
		App: 1, ID: 2, Node: "sink",
		OnExit: func(_ topology.WorkerID, err error) { exited <- err },
	}, &faulty{after: 3}, net.Attach(2))
	startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle)},
	}, &seqSource{}, net.Attach(1))

	select {
	case err := <-exited:
		if err == nil {
			t.Fatal("expected failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not crash")
	}
}

func TestStreamSubscriptionFilter(t *testing.T) {
	net := NewChanNetwork()
	sink := &collector{}
	w := startWorker(t, Config{
		App: 1, ID: 2, Node: "sink",
		Subscriptions: []tuple.StreamID{5},
	}, sink, net.Attach(2))
	ctl := net.Attach(99)
	_ = ctl.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.OnStream(5, tuple.Int(1)))
	_ = ctl.Send(Destination{Workers: []topology.WorkerID{2}}, tuple.OnStream(6, tuple.Int(2)))
	waitFor(t, 5*time.Second, func() bool { return sink.count() == 1 })
	waitFor(t, 5*time.Second, func() bool { return w.StatsSnapshot().Filtered == 1 })
}

// wireAckTopology builds src(1) -> mid(2) -> (terminal), with acker(3).
func wireAckTopology(t *testing.T, net *ChanNetwork, srcLimit int64) (*Worker, *terminal) {
	t.Helper()
	term := &terminal{}
	ackRoute := topology.Route{
		Edge:     topology.EdgeSpec{From: "*", To: "__acker", Policy: topology.Fields, HashFields: []int{1}, Stream: tuple.AckStream},
		NextHops: []topology.WorkerID{3},
	}
	completeRoute := topology.Route{
		Edge:     topology.EdgeSpec{From: "__acker", To: "src", Policy: topology.Direct, Stream: tuple.CompleteStream},
		NextHops: []topology.WorkerID{1},
	}
	startWorker(t, Config{
		App: 1, ID: 3, Node: "__acker", Acking: true,
		Subscriptions: []tuple.StreamID{tuple.AckStream},
		Routes:        []topology.Route{completeRoute},
	}, newTestAcker(), net.Attach(3))
	startWorker(t, Config{
		App: 1, ID: 2, Node: "mid", Acking: true,
		Routes: []topology.Route{ackRoute},
	}, term, net.Attach(2))
	src := startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true, Acking: true,
		AckTimeout: 300 * time.Millisecond,
		Routes:     []topology.Route{dataRoute(2, topology.Shuffle), ackRoute},
	}, &seqSource{limit: srcLimit}, net.Attach(1))
	return src, term
}

func TestGuaranteedProcessingCompletes(t *testing.T) {
	net := NewChanNetwork()
	src, term := wireAckTopology(t, net, 200)
	waitFor(t, 10*time.Second, func() bool { return src.StatsSnapshot().Completed == 200 })
	if term.seen.Load() != 200 {
		t.Fatalf("terminal saw %d", term.seen.Load())
	}
	if src.CompleteLatencies.Count() != 200 {
		t.Fatalf("latency samples = %d", src.CompleteLatencies.Count())
	}
	if src.StatsSnapshot().Replayed != 0 {
		t.Fatalf("unexpected replays: %d", src.StatsSnapshot().Replayed)
	}
}

func TestReplayWhenAckerUnreachable(t *testing.T) {
	net := NewChanNetwork()
	// Source tracks tuples but the acker route points to a nonexistent
	// worker, so completes never arrive and replays kick in.
	deadAck := topology.Route{
		Edge:     topology.EdgeSpec{From: "src", To: "__acker", Policy: topology.Fields, HashFields: []int{1}, Stream: tuple.AckStream},
		NextHops: []topology.WorkerID{42},
	}
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	src := startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true, Acking: true,
		AckTimeout: 100 * time.Millisecond, MaxPending: 10,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle), deadAck},
	}, &seqSource{limit: 5}, net.Attach(1))

	waitFor(t, 10*time.Second, func() bool { return src.StatsSnapshot().Replayed >= 5 })
	// The sink receives originals plus replays.
	if sink.count() < 5 {
		t.Fatalf("sink got %d", sink.count())
	}
	// Each tuple is replayed four times, then given up on and counted.
	waitFor(t, 10*time.Second, func() bool { return src.StatsSnapshot().GaveUp == 5 })
	if got := src.StatsSnapshot().Replayed; got != 20 {
		t.Fatalf("replayed %d, want 4 replays of each of 5 tuples", got)
	}
	_ = net.Attach(99).Send(Destination{Workers: []topology.WorkerID{1}},
		control.Encode(control.KindMetricReq, control.MetricReq{Token: 1}))
	select {
	case resp := <-net.Control:
		var mr control.MetricResp
		if err := control.DecodePayload(resp, &mr); err != nil || mr.GaveUp != 5 {
			t.Fatalf("METRIC_RESP %+v (%v), want GaveUp 5", mr, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no METRIC_RESP")
	}
}

func TestMaxPendingBackpressure(t *testing.T) {
	net := NewChanNetwork()
	deadAck := topology.Route{
		Edge:     topology.EdgeSpec{From: "src", To: "__acker", Policy: topology.Fields, HashFields: []int{1}, Stream: tuple.AckStream},
		NextHops: []topology.WorkerID{42},
	}
	sink := &collector{}
	startWorker(t, Config{App: 1, ID: 2, Node: "sink"}, sink, net.Attach(2))
	startWorker(t, Config{
		App: 1, ID: 1, Node: "src", Source: true, Acking: true,
		AckTimeout: time.Hour, MaxPending: 7,
		Routes: []topology.Route{dataRoute(2, topology.Shuffle), deadAck},
	}, &seqSource{}, net.Attach(1))
	time.Sleep(200 * time.Millisecond)
	if got := sink.count(); got != 7 {
		t.Fatalf("pending cap not enforced: sink got %d, want 7", got)
	}
}

func TestWorkerRejectsWrongKind(t *testing.T) {
	net := NewChanNetwork()
	RegisterLogic("test/onlybolt", func() Component { return &collector{} })
	if _, err := New(Config{ID: 1, Node: "x", Logic: "test/onlybolt", Source: true}, net.Attach(1)); err == nil {
		t.Fatal("bolt as spout should fail")
	}
	if _, err := New(Config{ID: 1, Node: "x", Logic: "nope"}, net.Attach(2)); err == nil {
		t.Fatal("unknown logic should fail")
	}
}

func TestRegistry(t *testing.T) {
	RegisterLogic("test/registry-entry", func() Component { return &collector{} })
	found := false
	for _, n := range RegisteredLogic() {
		if n == "test/registry-entry" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered logic not listed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty registration should panic")
		}
	}()
	RegisterLogic("", nil)
}
