package core

import (
	"testing"
	"time"

	"typhoon/internal/topology"
	"typhoon/internal/workload"
)

// registryValue reads one unlabelled sample from the cluster's registry.
func registryValue(t *testing.T, c *Cluster, name string) float64 {
	t.Helper()
	for _, s := range c.Obs.Registry.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("registry has no %s", name)
	return 0
}

// TestWorkersSendStatsOnlyWhenAsked: with no app deployed, the only
// METRIC_RESPs the controller records answer the host's own METRIC_REQ
// sweeps — one per worker per sweep, plus one sweep in flight at the window's
// start — and every worker's row stays fresh all the same.
func TestWorkersSendStatsOnlyWhenAsked(t *testing.T) {
	c, _, cfg := newCluster(t, ModeTyphoon)
	cfg.Set(workload.CfgSeqLimit, 1000)
	b := topology.NewBuilder("asked", 1)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("split", workload.LogicSplitter, 2).ShuffleFrom("src")
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("split")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	waitCond(t, 10*time.Second, "a statistics row per worker", func() bool {
		return len(c.Obs.Collector.Rows()) == workers
	})

	const polls, resps = "typhoon_collector_polls_total", "typhoon_collector_metric_resps_total"
	polls0, resps0 := registryValue(t, c, polls), registryValue(t, c, resps)
	time.Sleep(2500 * time.Millisecond)
	dPolls := registryValue(t, c, polls) - polls0
	dResps := registryValue(t, c, resps) - resps0

	t.Logf("%v sweeps, %v METRIC_RESPs", dPolls, dResps)
	if dResps > (dPolls+1)*workers {
		t.Errorf("%v METRIC_RESPs answered %v sweeps of %d workers: some arrived unasked", dResps, dPolls, workers)
	}
	if dResps == 0 {
		t.Error("no METRIC_RESP in the window: the host's sweep did not run")
	}
	for _, row := range c.Obs.Collector.Rows() {
		if row.AgeSecs > 2 {
			t.Errorf("worker %s/%d row is %.2fs old", row.Node, row.Worker, row.AgeSecs)
		}
	}
}
