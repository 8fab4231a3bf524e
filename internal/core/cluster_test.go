package core

import (
	"testing"
	"time"

	"typhoon/internal/chaos"
	"typhoon/internal/controller"
	"typhoon/internal/topology"
	"typhoon/internal/worker"
	"typhoon/internal/workload"
)

// newCluster builds a small cluster with fast test timings.
func newCluster(t *testing.T, mode Mode, hosts ...string) (*Cluster, *workload.Stats, *workload.Config) {
	t.Helper()
	if len(hosts) == 0 {
		hosts = []string{"h1", "h2"}
	}
	c, err := NewCluster(Config{
		Mode:              mode,
		Hosts:             hosts,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		MonitorInterval:   200 * time.Millisecond,
		DrainDelay:        100 * time.Millisecond,
		RestartDelay:      200 * time.Millisecond,
		DefaultBatchSize:  50,
		AckTimeout:        time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	stats := workload.NewStats(100 * time.Millisecond)
	cfg := workload.NewConfig()
	c.Env.Set(workload.EnvStats, stats)
	c.Env.Set(workload.EnvConfig, cfg)
	return c, stats, cfg
}

func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTyphoonPipelineEndToEnd(t *testing.T) {
	c, stats, cfg := newCluster(t, ModeTyphoon)
	cfg.Set(workload.CfgSeqLimit, 5000)

	b := topology.NewBuilder("pipeline", 1)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("sink", workload.LogicSeqChecker, 1).ShuffleFrom("src")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 15*time.Second, "all tuples at sink", func() bool {
		return stats.Counter("seq.seen").Value() == 5000
	})
	if gaps := stats.Counter("seq.gaps").Value(); gaps != 0 {
		t.Fatalf("sequence gaps: %d (tuples lost or reordered)", gaps)
	}
}

func TestTyphoonBroadcastSingleSerialization(t *testing.T) {
	c, stats, cfg := newCluster(t, ModeTyphoon, "h1", "h2", "h3")
	cfg.Set(workload.CfgSeqLimit, 2000)

	b := topology.NewBuilder("bcast", 2)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("sink", workload.LogicSink, 4).AllFrom("src")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 15*time.Second, "broadcast fan-out", func() bool {
		return stats.Counter("sink.total").Value() == 4*2000
	})
	// One serialization per tuple regardless of four sinks.
	src := c.WorkersOf("bcast", "src")
	if len(src) != 1 {
		t.Fatalf("source workers = %d", len(src))
	}
	ts := src[0].Transport().Stats()
	if ts.Serializations != 2000 {
		t.Fatalf("serializations = %d, want 2000", ts.Serializations)
	}
}

func TestStormBaselinePipeline(t *testing.T) {
	c, stats, cfg := newCluster(t, ModeStorm)
	cfg.Set(workload.CfgSeqLimit, 5000)

	b := topology.NewBuilder("storm-pipeline", 3)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("sink", workload.LogicSeqChecker, 1).ShuffleFrom("src")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 15*time.Second, "all tuples at baseline sink", func() bool {
		return stats.Counter("seq.seen").Value() == 5000
	})
	if gaps := stats.Counter("seq.gaps").Value(); gaps != 0 {
		t.Fatalf("sequence gaps: %d", gaps)
	}
}

func TestStormBaselineBroadcastSerializesPerDestination(t *testing.T) {
	c, stats, cfg := newCluster(t, ModeStorm)
	cfg.Set(workload.CfgSeqLimit, 1000)

	b := topology.NewBuilder("storm-bcast", 4)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("sink", workload.LogicSink, 3).AllFrom("src")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 15*time.Second, "baseline fan-out", func() bool {
		return stats.Counter("sink.total").Value() == 3*1000
	})
	src := c.WorkersOf("storm-bcast", "src")[0]
	if s := src.Transport().Stats(); s.Serializations != 3*1000 {
		t.Fatalf("serializations = %d, want 3000 (one per destination)", s.Serializations)
	}
}

func TestTyphoonScaleUpNoTupleLoss(t *testing.T) {
	c, stats, cfg := newCluster(t, ModeTyphoon)
	cfg.Set(workload.CfgSeqLimit, 0) // unlimited

	b := topology.NewBuilder("scale", 5)
	b.Source("src", workload.LogicSentenceSource, 1)
	b.Node("split", workload.LogicSplitter, 1).ShuffleFrom("src")
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("split")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 10*time.Second, "traffic", func() bool {
		return stats.Counter("sink.total").Value() > 1000
	})
	if err := c.Manager.SetParallelism("scale", "split", 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Manager.WaitReady("scale", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 10*time.Second, "three splitters running", func() bool {
		return len(c.WorkersOf("scale", "split")) == 3
	})
	// All three splitters eventually process tuples.
	waitCond(t, 10*time.Second, "new splitters active", func() bool {
		active := 0
		for _, w := range c.WorkersOf("scale", "split") {
			if w.StatsSnapshot().Processed > 0 {
				active++
			}
		}
		return active == 3
	})
}

func TestTyphoonScaleDownDrainsWorker(t *testing.T) {
	c, stats, cfg := newCluster(t, ModeTyphoon)
	cfg.Set(workload.CfgSeqLimit, 0)

	b := topology.NewBuilder("scaledown", 6)
	b.Source("src", workload.LogicSentenceSource, 1)
	b.Node("split", workload.LogicSplitter, 3).ShuffleFrom("src")
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("split")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 10*time.Second, "traffic", func() bool {
		return stats.Counter("sink.total").Value() > 500
	})
	if err := c.Manager.SetParallelism("scaledown", "split", 1); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 10*time.Second, "one splitter left", func() bool {
		return len(c.WorkersOf("scaledown", "split")) == 1
	})
	// Traffic keeps flowing through the survivor.
	before := stats.Counter("sink.total").Value()
	waitCond(t, 10*time.Second, "traffic after scale-down", func() bool {
		return stats.Counter("sink.total").Value() > before+500
	})
}

func TestTyphoonSwapLogicWithoutRestart(t *testing.T) {
	c, stats, cfg := newCluster(t, ModeTyphoon)
	cfg.Set(workload.CfgSeqLimit, 0)

	b := topology.NewBuilder("swap", 7)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("mid", workload.LogicForwarder, 1).ShuffleFrom("src")
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("mid")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 10*time.Second, "traffic", func() bool {
		return stats.Counter("sink.total").Value() > 500
	})
	oldMid := c.WorkersOf("swap", "mid")
	srcEmittedBefore := c.WorkersOf("swap", "src")[0].StatsSnapshot().Emitted

	// Hot-swap the forwarder for the splitter logic (it will split the
	// payload string; behaviourally different and observable).
	if err := c.Manager.SwapLogic("swap", "mid", workload.LogicSplitter); err != nil {
		t.Fatal(err)
	}
	if err := c.Manager.WaitReady("swap", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 10*time.Second, "replacement worker", func() bool {
		ws := c.WorkersOf("swap", "mid")
		return len(ws) == 1 && ws[0].ID() != oldMid[0].ID() && ws[0].StatsSnapshot().Processed > 0
	})
	// The source was never restarted: its emitted counter kept growing
	// monotonically through the swap.
	srcEmittedAfter := c.WorkersOf("swap", "src")[0].StatsSnapshot().Emitted
	if srcEmittedAfter <= srcEmittedBefore {
		t.Fatal("source restarted or stalled during logic swap")
	}
}

func TestTyphoonStatefulScaleUpFlushes(t *testing.T) {
	c, stats, cfg := newCluster(t, ModeTyphoon)
	cfg.Set(workload.CfgSeqLimit, 0)

	b := topology.NewBuilder("stateful", 8)
	b.Source("src", workload.LogicSentenceSource, 1)
	b.Node("count", workload.LogicCounter, 2).FieldsFrom("src", 0).Stateful()
	b.Node("sink", workload.LogicSink, 1).GlobalFrom("count")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 10*time.Second, "counting", func() bool {
		ws := c.WorkersOf("stateful", "count")
		var n uint64
		for _, w := range ws {
			n += w.StatsSnapshot().Processed
		}
		return n > 500
	})
	if err := c.Manager.SetParallelism("stateful", "count", 3); err != nil {
		t.Fatal(err)
	}
	// §3.5: the existing stateful instances are flushed via SIGNAL before
	// routing changes.
	waitCond(t, 10*time.Second, "stateful flush", func() bool {
		return stats.Counter("count.flushes").Value() >= 2
	})
}

func TestTyphoonGuaranteedProcessing(t *testing.T) {
	c, _, cfg := newCluster(t, ModeTyphoon)
	cfg.Set(workload.CfgSeqLimit, 1000)

	b := topology.NewBuilder("acked", 9)
	b.Ackers(1)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("sink", workload.LogicSeqChecker, 1).ShuffleFrom("src")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 20*time.Second, "completions", func() bool {
		ws := c.WorkersOf("acked", "src")
		return len(ws) == 1 && ws[0].StatsSnapshot().Completed == 1000
	})
	src := c.WorkersOf("acked", "src")[0]
	if src.CompleteLatencies.Count() != 1000 {
		t.Fatalf("latency samples = %d", src.CompleteLatencies.Count())
	}
}

// TestAckedReplayUnderLoss: with 5 % of the frames on the h1↔h2 tunnel lost,
// every source tuple still ends exactly once, completed or given up after its
// last replay. One lost frame can take a whole batch of acker records (up to
// 64 trees) with it; replay covers them.
func TestAckedReplayUnderLoss(t *testing.T) {
	const n = 5000
	c, err := NewCluster(Config{
		Mode:             ModeTyphoon,
		Hosts:            []string{"h1", "h2"},
		DefaultBatchSize: 50,
		AckTimeout:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	cfg := workload.NewConfig()
	cfg.Set(workload.CfgSeqLimit, n)
	c.Env.Set(workload.EnvStats, workload.NewStats(100*time.Millisecond))
	c.Env.Set(workload.EnvConfig, cfg)
	if err := c.Chaos.Apply(chaos.Spec{Kind: chaos.KindNetem, Host: "h1", Peer: "h2", DropRate: 0.05}); err != nil {
		t.Fatal(err)
	}

	b := topology.NewBuilder("lossy", 9)
	b.Ackers(1)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("sink", workload.LogicSeqChecker, 1).ShuffleFrom("src")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var s worker.Stats
	waitCond(t, 30*time.Second, "every tree completed or given up", func() bool {
		ws := c.WorkersOf("lossy", "src")
		if len(ws) != 1 {
			return false
		}
		s = ws[0].StatsSnapshot()
		return s.Completed+s.GaveUp >= n
	})
	if s.Completed+s.GaveUp != n {
		t.Fatalf("completed %d + gave up %d, want %d emitted", s.Completed, s.GaveUp, n)
	}
	if s.Replayed == 0 || c.netem.Dropped() == 0 {
		t.Fatalf("replayed %d trees with %d frames dropped; want the loss to force replays", s.Replayed, c.netem.Dropped())
	}
	t.Logf("completed %d, gave up %d, replayed %d, frames dropped %d", s.Completed, s.GaveUp, s.Replayed, c.netem.Dropped())
}

func TestFaultDetectorKeepsPipelineAlive(t *testing.T) {
	c, stats, cfg := newCluster(t, ModeTyphoon, "h1", "h2", "h3")
	cfg.Set(workload.CfgSeqLimit, 0)

	fd := newFaultDetectorForTest(c)
	b := topology.NewBuilder("fault", 10)
	b.Source("src", workload.LogicSentenceSource, 1)
	b.Node("split", workload.LogicFaultySplitter, 2).ShuffleFrom("src")
	b.Node("count", workload.LogicCounter, 2).FieldsFrom("split", 0).Stateful()
	b.Node("sink", workload.LogicSink, 1).GlobalFrom("count")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 10*time.Second, "traffic", func() bool {
		var n uint64
		for _, w := range c.WorkersOf("fault", "count") {
			n += w.StatsSnapshot().Processed
		}
		return n > 1000
	})
	// Inject the split fault (instance 0 crashes on its next tuple).
	cfg.Set(workload.CfgFaultIndex, 0)
	cfg.Set(workload.CfgFaultArmed, 1)
	waitCond(t, 10*time.Second, "fault detected", func() bool {
		return fd.Detected() >= 1
	})
	// Counts keep growing through the surviving splitter.
	var before uint64
	for _, w := range c.WorkersOf("fault", "count") {
		before += w.StatsSnapshot().Processed
	}
	waitCond(t, 10*time.Second, "traffic after fault", func() bool {
		var n uint64
		for _, w := range c.WorkersOf("fault", "count") {
			n += w.StatsSnapshot().Processed
		}
		return n > before+1000
	})
	_ = stats
}

func TestAutoScalerAddsWorkerUnderLoad(t *testing.T) {
	c, _, cfg := newCluster(t, ModeTyphoon)
	cfg.Set(workload.CfgSeqLimit, 0)
	cfg.Set(workload.CfgWorkNanos, 200_000) // 200 µs per tuple: splitter saturates

	as := newAutoScalerForTest(c, "autoscale", "split", 50, 4)
	b := topology.NewBuilder("autoscale", 11)
	b.Source("src", workload.LogicSentenceSource, 1)
	b.Node("split", workload.LogicSplitter, 1).ShuffleFrom("src")
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("split")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 30*time.Second, "scale-up", func() bool {
		return as.ScaleUps() >= 1 && len(c.WorkersOf("autoscale", "split")) >= 2
	})
}

func TestHeartbeatRescheduleMovesWorker(t *testing.T) {
	c, stats, cfg := newCluster(t, ModeStorm)
	cfg.Set(workload.CfgSeqLimit, 0)

	b := topology.NewBuilder("hb", 12)
	b.Source("src", workload.LogicSentenceSource, 1)
	b.Node("split", workload.LogicFaultySplitter, 2).ShuffleFrom("src")
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("split")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 10*time.Second, "traffic", func() bool {
		return stats.Counter("sink.total").Value() > 200
	})
	_, p0, _ := c.Manager.Describe("hb")
	victim := p0.Instances("split")[0]

	cfg.Set(workload.CfgFaultIndex, 0)
	cfg.Set(workload.CfgFaultArmed, 1)
	// The dead worker's heartbeats go stale; the manager moves it to the
	// other host after the timeout.
	waitCond(t, 30*time.Second, "reschedule to another host", func() bool {
		_, p, err := c.Manager.Describe("hb")
		if err != nil {
			return false
		}
		as := p.Worker(victim.Worker)
		return as != nil && as.Host != victim.Host
	})
}

// --- helpers wiring controller apps into test clusters ------------------

func newFaultDetectorForTest(c *Cluster) *controller.FaultDetector {
	fd := controller.NewFaultDetector()
	c.Controller.AddApp(fd)
	return fd
}

func newAutoScalerForTest(c *Cluster, topo, node string, upQueue, max int) *controller.AutoScaler {
	as := controller.NewAutoScaler()
	as.AddPolicy(controller.AutoScalePolicy{
		Topo: topo, Node: node, ScaleUpQueue: upQueue, Max: max, Cooldown: time.Second,
	})
	c.Controller.AddApp(as)
	return as
}
