package conformance

import (
	"net/http/httptest"
	"testing"
	"time"

	"typhoon/internal/apiclient"
	"typhoon/internal/core"
)

// newBatchHarness is newHarness with the data plane and the two batching
// knobs exposed: the count threshold (transport) and the flush deadline
// (worker loop).
func newBatchHarness(t *testing.T, p *Params, mode core.Mode, batch int, deadline time.Duration) (*core.Cluster, *Recorder) {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Mode:                 mode,
		Hosts:                []string{"h1", "h2"},
		HeartbeatInterval:    100 * time.Millisecond,
		HeartbeatTimeout:     2 * time.Second,
		MonitorInterval:      200 * time.Millisecond,
		DrainDelay:           100 * time.Millisecond,
		RestartDelay:         200 * time.Millisecond,
		DefaultBatchSize:     batch,
		DefaultFlushDeadline: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	rec := NewRecorder(*p, true)
	c.Env.Set(EnvParams, p)
	c.Env.Set(EnvRecorder, rec)
	return c, rec
}

// TestConformanceBatchSweep runs the strict pipeline — per-key FIFO,
// no-loss, no-dup — at batch size 1 (every tuple its own flush), the
// cluster default, and 256 (frames pack until the payload budget splits
// them). The delivery invariants must hold identically at every point of
// the latency/throughput trade-off.
func TestConformanceBatchSweep(t *testing.T) {
	for _, bs := range []struct {
		name  string
		batch int
	}{
		{"size-1", 1},
		{"size-default", 50},
		{"size-256", 256},
	} {
		t.Run(bs.name, func(t *testing.T) {
			p := &Params{
				Keys: 16, PerKey: 200, Window: 25, Seed: 11,
				ThrottleEvery: 64, ThrottleDelay: time.Millisecond,
			}
			c, rec := newBatchHarness(t, p, core.ModeTyphoon, bs.batch, 0)
			if err := c.Submit(buildTopo(t, "conf-batch-"+bs.name, 2), 15*time.Second); err != nil {
				t.Fatal(err)
			}
			waitCond(t, 60*time.Second, "stream completion", rec.Complete)
			if bad := rec.Check(); len(bad) != 0 {
				for i, v := range bad {
					if i == 10 {
						t.Errorf("... (%d findings total)", len(bad))
						break
					}
					t.Errorf("conformance: %s", v)
				}
				t.FailNow()
			}
		})
	}
}

// TestConformanceFlushDeadline pins the time bound on staging end to end:
// with the batch threshold out of reach (100k) the only thing that moves a
// staged tuple is the worker loop's flush deadline, at its default. A slow
// open-loop source then completes the strict stream in both data planes —
// the Storm baseline's buffered writers are flushed by nothing else either.
func TestConformanceFlushDeadline(t *testing.T) {
	for _, m := range []struct {
		name string
		mode core.Mode
	}{
		{"typhoon", core.ModeTyphoon},
		{"storm", core.ModeStorm},
	} {
		t.Run(m.name, func(t *testing.T) {
			p := &Params{
				Keys: 8, PerKey: 50, Window: 10, Seed: 23,
				ThrottleEvery: 8, ThrottleDelay: 2 * time.Millisecond,
			}
			c, rec := newBatchHarness(t, p, m.mode, 100_000, 0)
			if err := c.Submit(buildTopo(t, "conf-deadline-"+m.name, 2), 15*time.Second); err != nil {
				t.Fatal(err)
			}
			waitCond(t, 30*time.Second, "deadline-driven stream completion", rec.Complete)
			if bad := rec.Check(); len(bad) != 0 {
				t.Fatalf("%d conformance findings (first: %v)", len(bad), bad[0])
			}
		})
	}
}

// TestConformanceFlushBeforeWait: with the threshold out of reach and the
// deadline at an hour, nothing bounds staging by time, so what carries the
// strict stream is the worker loop's flush before every wait — in both data
// planes, since the Storm baseline runs the same loop.
func TestConformanceFlushBeforeWait(t *testing.T) {
	for _, m := range []struct {
		name string
		mode core.Mode
	}{
		{"typhoon", core.ModeTyphoon},
		{"storm", core.ModeStorm},
	} {
		t.Run(m.name, func(t *testing.T) {
			p := &Params{
				Keys: 8, PerKey: 50, Window: 10, Seed: 31,
				ThrottleEvery: 8, ThrottleDelay: 2 * time.Millisecond,
			}
			c, rec := newBatchHarness(t, p, m.mode, 100_000, time.Hour)
			if err := c.Submit(buildTopo(t, "conf-flushwait-"+m.name, 2), 15*time.Second); err != nil {
				t.Fatal(err)
			}
			waitCond(t, 30*time.Second, "stream completion on flush-before-wait", rec.Complete)
			if bad := rec.Check(); len(bad) != 0 {
				t.Fatalf("%d conformance findings (first: %v)", len(bad), bad[0])
			}
		})
	}
}

// TestConformanceFlushDeadlineRetuneAPI drives the live retune end to end on
// a cluster started with the deadline disabled and the threshold out of
// reach: POST /api/v1/batch?deadline=2ms must reach every running worker's
// loop. Completion alone would not show that — in a live cluster full frames
// and the flush behind each METRIC_RESP a worker sends also push staged
// tuples out (the strict "nothing leaves until Stop" case is
// worker.TestFlushDeadline) — so the check is the realized occupancy the same
// endpoint reports: frames that left only when full or behind a METRIC_RESP
// carry ~100 tuples, frames flushed every 2 ms behind a paced source carry a
// handful.
func TestConformanceFlushDeadlineRetuneAPI(t *testing.T) {
	p := &Params{
		Keys: 8, PerKey: 400, Window: 10, Seed: 29,
		ThrottleEvery: 8, ThrottleDelay: 2 * time.Millisecond,
	}
	c, rec := newBatchHarness(t, p, core.ModeTyphoon, 100_000, -1)
	srv := httptest.NewServer(c.ObserveHandler())
	t.Cleanup(srv.Close)
	api := apiclient.New(srv.Listener.Addr().String())
	sent := func() (tuples, frames uint64) {
		st, err := api.Batch()
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range st.Hosts {
			tuples += h.TuplesSent
			frames += h.FramesSent
		}
		return tuples, frames
	}
	if err := c.Submit(buildTopo(t, "conf-deadline-api", 2), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 30*time.Second, "stream underway", func() bool { return rec.Total() > 0 })
	if err := api.BatchSet(0, 2*time.Millisecond); err != nil {
		t.Fatalf("POST /api/v1/batch: %v", err)
	}
	t0, f0 := sent()
	if rec.Complete() {
		t.Fatal("stream finished before the retune; slow the source")
	}
	waitCond(t, 60*time.Second, "stream completion after retune", rec.Complete)
	if bad := rec.Check(); len(bad) != 0 {
		t.Fatalf("%d conformance findings after retune (first: %v)", len(bad), bad[0])
	}
	st, err := api.Batch()
	if err != nil {
		t.Fatal(err)
	}
	if st.FlushDeadlineNs != int64(2*time.Millisecond) {
		t.Fatalf("GET reports deadline %dns, want 2ms", st.FlushDeadlineNs)
	}
	t1, f1 := sent()
	if occ := float64(t1-t0) / float64(f1-f0); occ > 20 {
		t.Fatalf("%.1f tuples/frame after the retune: workers are still flushing only full frames", occ)
	}
}

// TestConformanceBatchRetuneMidStream retunes batch size and flush deadline
// through the cluster's SetBatch — the /api/v1/batch path — while the
// strict stream is in flight: the BATCH_SIZE control tuples must reach
// every running worker without disturbing FIFO/no-loss/no-dup delivery.
func TestConformanceBatchRetuneMidStream(t *testing.T) {
	p := &Params{
		Keys: 16, PerKey: 300, Window: 25, Seed: 31,
		ThrottleEvery: 32, ThrottleDelay: 2 * time.Millisecond,
	}
	c, rec := newBatchHarness(t, p, core.ModeTyphoon, 50, 0)
	if err := c.Submit(buildTopo(t, "conf-retune", 2), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 30*time.Second, "stream underway", func() bool {
		return rec.Total() > p.Total()/8
	})
	if err := c.SetBatch(256, 2*time.Millisecond); err != nil {
		t.Fatalf("SetBatch: %v", err)
	}
	if rec.Complete() {
		t.Fatal("stream finished before the retune; slow the source")
	}
	waitCond(t, 60*time.Second, "stream completion after retune", rec.Complete)
	if bad := rec.Check(); len(bad) != 0 {
		t.Fatalf("%d conformance findings after retune (first: %v)", len(bad), bad[0])
	}
}
