// Recovery hardening suite: each test injects one fault class against a
// running wordcount topology and asserts — through the observe registry and
// the chaos engine's injection counters — that the fault was detected, the
// system recovered (rescheduling, flow-rule reconvergence), and tuple flow
// resumed within a bounded window. The chaos seed is fixed, so netem's
// random decisions reproduce run to run.
package chaos_test

import (
	"sync/atomic"
	"testing"
	"time"

	"typhoon/internal/chaos"
	"typhoon/internal/controller"
	"typhoon/internal/core"
	"typhoon/internal/observe"
	"typhoon/internal/topology"
	"typhoon/internal/worker"
	"typhoon/internal/workload"
)

const chaosSeed = 42

// newRecoveryCluster builds a Typhoon cluster with fast fault-handling
// timings and a fixed chaos seed; extra, if non-nil, adjusts the Config
// before the cluster is built.
func newRecoveryCluster(t *testing.T, extra func(*core.Config), hosts ...string) (*core.Cluster, *workload.Stats, *workload.Config) {
	t.Helper()
	if len(hosts) == 0 {
		hosts = []string{"h1", "h2"}
	}
	clusterCfg := core.Config{
		Hosts:             hosts,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		MonitorInterval:   200 * time.Millisecond,
		DrainDelay:        100 * time.Millisecond,
		RestartDelay:      200 * time.Millisecond,
		DefaultBatchSize:  50,
		Chaos:             chaos.Plan{Seed: chaosSeed},
	}
	if extra != nil {
		extra(&clusterCfg)
	}
	c, err := core.NewCluster(clusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	stats := workload.NewStats(100 * time.Millisecond)
	cfg := workload.NewConfig()
	cfg.Set(workload.CfgSeqLimit, 0) // unlimited
	c.Env.Set(workload.EnvStats, stats)
	c.Env.Set(workload.EnvConfig, cfg)
	return c, stats, cfg
}

// submitWordcount deploys the canonical wordcount pipeline and waits for
// traffic to reach the sink.
func submitWordcount(t *testing.T, c *core.Cluster, stats *workload.Stats, name string, app uint16) {
	t.Helper()
	b := topology.NewBuilder(name, app)
	b.Source("src", workload.LogicSentenceSource, 1)
	b.Node("split", workload.LogicSplitter, 2).ShuffleFrom("src")
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("split")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 15*time.Second, "initial traffic at sink", func() bool {
		return stats.Counter("sink.total").Value() > 1000
	})
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

// metricValue reads one sample from the cluster's observe registry,
// matching by name and (subset of) labels; -1 when absent.
func metricValue(reg *observe.Registry, name string, labels map[string]string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	return -1
}

// splitWorker picks one running splitter worker to victimize.
func splitWorker(t *testing.T, c *core.Cluster, topo string) (topology.WorkerID, *worker.Worker) {
	t.Helper()
	_, p, err := c.Manager.Describe(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, as := range p.Instances("split") {
		if w := c.Worker(topo, as.Worker); w != nil {
			return as.Worker, w
		}
	}
	t.Fatal("no running split worker")
	return 0, nil
}

// TestRecoveryTunnelPartition cuts the inter-host link mid-stream for a
// bounded window and asserts frames were dropped (netem metrics), the
// window auto-healed, and tuple flow resumed. This is the short-mode chaos
// smoke test CI runs on every push.
func TestRecoveryTunnelPartition(t *testing.T) {
	c, stats, _ := newRecoveryCluster(t, nil)
	submitWordcount(t, c, stats, "wc-partition", 21)

	if err := c.Chaos.Apply(chaos.Spec{
		Kind: chaos.KindPartition, Host: "h1", Peer: "h2",
		Duration: 700 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Chaos.Count(chaos.KindPartition); got != 1 {
		t.Fatalf("partition injections = %d, want 1", got)
	}
	// Detection: the partition visibly destroys frames, accounted in the
	// registry the moment cross-host traffic hits the cut link.
	waitCond(t, 5*time.Second, "frames dropped on the cut link", func() bool {
		return metricValue(c.Obs.Registry, "typhoon_chaos_netem_dropped_frames_total", nil) > 0
	})
	if v := metricValue(c.Obs.Registry, "typhoon_chaos_injections_total",
		map[string]string{"kind": "partition"}); v != 1 {
		t.Fatalf("injection metric = %v, want 1", v)
	}
	// Recovery: the window reverses itself...
	waitCond(t, 5*time.Second, "auto-heal", func() bool {
		return c.Chaos.Count(chaos.KindHeal) == 1
	})
	// ...and tuple flow resumes across the healed link.
	before := stats.Counter("sink.total").Value()
	waitCond(t, 10*time.Second, "tuple flow after heal", func() bool {
		return stats.Counter("sink.total").Value() > before+1000
	})
}

// TestRecoveryPortDownFastPath removes a live worker's switch port and
// asserts the §4 fast path: the fault detector reacts to the PortStatus
// event (before any heartbeat timeout), the worker is locally restarted,
// flow rules reconverge onto its new port, and tuple flow resumes.
func TestRecoveryPortDownFastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: partition smoke only")
	}
	c, stats, _ := newRecoveryCluster(t, nil, "h1", "h2", "h3")
	fd := controller.NewFaultDetector()
	c.Controller.AddApp(fd)
	submitWordcount(t, c, stats, "wc-portdown", 22)

	victim, w0 := splitWorker(t, c, "wc-portdown")
	if err := c.Chaos.Apply(chaos.Spec{
		Kind: chaos.KindPortDown, Topo: "wc-portdown", Worker: victim,
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Chaos.Count(chaos.KindPortDown); got != 1 {
		t.Fatalf("port-down injections = %d, want 1", got)
	}
	// Detection: the PortStatus event reaches the fault detector.
	waitCond(t, 5*time.Second, "fault detector reaction", func() bool {
		return fd.Detected() >= 1
	})
	// Recovery: a fresh incarnation comes up on a new port and the
	// controller re-programs rules for it (it can only process tuples once
	// predecessors' frames reach its new port).
	waitCond(t, 15*time.Second, "restarted worker processing", func() bool {
		w := c.Worker("wc-portdown", victim)
		return w != nil && w != w0 && w.StatsSnapshot().Processed > 0
	})
	before := stats.Counter("sink.total").Value()
	waitCond(t, 10*time.Second, "tuple flow after port loss", func() bool {
		return stats.Counter("sink.total").Value() > before+1000
	})
}

// TestRecoveryWorkerCrash kills a worker outright and asserts the crash is
// observed, the agent restarts it with backoff, rules reconverge, and flow
// resumes.
func TestRecoveryWorkerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: partition smoke only")
	}
	var crashes atomic.Int64
	c, stats, _ := newRecoveryCluster(t, func(cfg *core.Config) {
		cfg.OnWorkerCrash = func(topo string, id topology.WorkerID, err error) {
			crashes.Add(1)
		}
	})
	submitWordcount(t, c, stats, "wc-crash", 23)

	victim, w0 := splitWorker(t, c, "wc-crash")
	if err := c.Chaos.Apply(chaos.Spec{
		Kind: chaos.KindWorkerCrash, Topo: "wc-crash", Worker: victim,
	}); err != nil {
		t.Fatal(err)
	}
	// Detection: the injected failure surfaces through the agent's crash
	// path, and the injection is on the chaos record.
	waitCond(t, 5*time.Second, "crash observed", func() bool {
		return crashes.Load() >= 1
	})
	if v := metricValue(c.Obs.Registry, "typhoon_chaos_injections_total",
		map[string]string{"kind": "crash"}); v != 1 {
		t.Fatalf("crash injection metric = %v, want 1", v)
	}
	found := false
	for _, inj := range c.Chaos.Injections() {
		if inj.Spec.Kind == chaos.KindWorkerCrash && inj.Spec.Worker == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("injection log missing the crash record")
	}
	// Recovery: local restart plus rule reconvergence onto the new port.
	waitCond(t, 15*time.Second, "restarted worker processing", func() bool {
		w := c.Worker("wc-crash", victim)
		return w != nil && w != w0 && w.StatsSnapshot().Processed > 0
	})
	before := stats.Counter("sink.total").Value()
	waitCond(t, 10*time.Second, "tuple flow after crash", func() bool {
		return stats.Counter("sink.total").Value() > before+1000
	})
}

// TestRecoveryControllerOutage takes the controller offline for a bounded
// window, crashes a worker mid-outage, and asserts graceful degradation:
// the data plane keeps forwarding on installed rules, the agent restarts
// the worker locally without controller help, and once the outage ends the
// controller reconciles the drifted state so the restarted worker rejoins.
func TestRecoveryControllerOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: partition smoke only")
	}
	c, stats, _ := newRecoveryCluster(t, nil)
	submitWordcount(t, c, stats, "wc-outage", 24)

	victim, w0 := splitWorker(t, c, "wc-outage")
	if err := c.Chaos.Apply(chaos.Spec{
		Kind: chaos.KindControllerOutage, Duration: 800 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if !c.Controller.Outage() {
		t.Fatal("controller not in outage after injection")
	}
	// Crash a worker while the controller is down: only the local agent
	// can act on it.
	if err := c.Chaos.Apply(chaos.Spec{
		Kind: chaos.KindWorkerCrash, Topo: "wc-outage", Worker: victim,
	}); err != nil {
		t.Fatal(err)
	}
	// Degradation: the rest of the pipeline keeps flowing on installed
	// rules while the controller is dark.
	during := stats.Counter("sink.total").Value()
	waitCond(t, 10*time.Second, "tuple flow during outage", func() bool {
		return stats.Counter("sink.total").Value() > during+200
	})
	// Recovery: the window auto-restores and reconciliation reinstalls
	// rules for the locally restarted worker, which then rejoins.
	waitCond(t, 5*time.Second, "outage auto-restore", func() bool {
		return c.Chaos.Count(chaos.KindControllerRestore) == 1 && !c.Controller.Outage()
	})
	waitCond(t, 15*time.Second, "restarted worker rejoined", func() bool {
		w := c.Worker("wc-outage", victim)
		return w != nil && w != w0 && w.StatsSnapshot().Processed > 0
	})
	before := stats.Counter("sink.total").Value()
	waitCond(t, 10*time.Second, "tuple flow after restore", func() bool {
		return stats.Counter("sink.total").Value() > before+1000
	})
	if v := metricValue(c.Obs.Registry, "typhoon_chaos_injections_total",
		map[string]string{"kind": "controller-outage"}); v != 1 {
		t.Fatalf("outage injection metric = %v, want 1", v)
	}
}

// TestRecoveryPlanDrivenInjection runs a scripted plan (the Config.Chaos
// shape) against live traffic: a netem drop-rate impairment followed by a
// heal, asserting the plan's events fire in order and the seeded drop
// pattern repeats what the unit tests established.
func TestRecoveryPlanDrivenInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: partition smoke only")
	}
	c, stats, _ := newRecoveryCluster(t, nil)
	submitWordcount(t, c, stats, "wc-plan", 25)

	plan := chaos.Plan{
		Seed: chaosSeed,
		Events: []chaos.Event{
			{After: 0, Spec: chaos.Spec{Kind: chaos.KindNetem, Host: "h1", Peer: "h2", DropRate: 0.4}},
			{After: 600 * time.Millisecond, Spec: chaos.Spec{Kind: chaos.KindHeal}},
		},
	}
	if err := c.Chaos.RunPlan(plan); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, "plan events fired", func() bool {
		return c.Chaos.Count(chaos.KindNetem) == 1 && c.Chaos.Count(chaos.KindHeal) == 1
	})
	waitCond(t, 5*time.Second, "lossy window dropped frames", func() bool {
		return metricValue(c.Obs.Registry, "typhoon_chaos_netem_dropped_frames_total", nil) > 0
	})
	if n := metricValue(c.Obs.Registry, "typhoon_chaos_impaired_links", nil); n != 0 {
		t.Fatalf("impaired links = %v after heal, want 0", n)
	}
	before := stats.Counter("sink.total").Value()
	waitCond(t, 10*time.Second, "tuple flow after heal", func() bool {
		return stats.Counter("sink.total").Value() > before+1000
	})
}
