package conformance

import (
	"testing"
	"time"

	"typhoon/internal/core"
)

// newReplicatedHarness is newHarness with a 3-instance replicated control
// plane: ctl-0/ctl-1/ctl-2 campaign for per-switch mastership over the
// coordinator, and each topology is driven by the master of its first
// host.
func newReplicatedHarness(t *testing.T, p *Params, strict bool) (*core.Cluster, *Recorder) {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Mode:              core.ModeTyphoon,
		Hosts:             []string{"h1", "h2"},
		Controllers:       3,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		MonitorInterval:   200 * time.Millisecond,
		DrainDelay:        100 * time.Millisecond,
		RestartDelay:      200 * time.Millisecond,
		DefaultBatchSize:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	rec := NewRecorder(*p, strict)
	c.Env.Set(EnvParams, p)
	c.Env.Set(EnvRecorder, rec)
	return c, rec
}

// TestConformanceMasterFailover kills the controller mastering the
// topology's primary switch in the middle of a strict seeded stream. The
// surviving peers must take the switch over (a higher lease epoch under a
// new owner), reinstall its rules, and resume the control plane — while
// the data plane keeps forwarding from its hot flow caches with zero
// tuple loss, duplication, or reordering.
func TestConformanceMasterFailover(t *testing.T) {
	p := &Params{
		Keys: 24, PerKey: 500, Window: 25, Seed: 11,
		ThrottleEvery: 24, ThrottleDelay: 3 * time.Millisecond,
	}
	c, rec := newReplicatedHarness(t, p, true)
	if err := c.Submit(buildTopo(t, "conf-failover", 2), 20*time.Second); err != nil {
		t.Fatal(err)
	}

	waitCond(t, 30*time.Second, "stream underway", func() bool {
		return rec.Total() > p.Total()/8
	})
	if rec.Total() >= p.Total() {
		t.Fatalf("stream already complete before failover; slow the source")
	}

	// h1 sorts first, so its master also owns the topology's control
	// tuples and rescale/balancing apps — killing it exercises both the
	// switch-mastership and app-ownership failover paths at once.
	victim, victimEpoch, ok := c.MasterOf("h1")
	if !ok {
		t.Fatal("no master elected for h1")
	}
	if err := c.KillController(victim); err != nil {
		t.Fatal(err)
	}
	t.Logf("killed %s (h1 master, epoch %d) at %d/%d tuples",
		victim, victimEpoch, rec.Total(), p.Total())

	// Failover: a surviving peer must claim h1 at a fenced higher epoch.
	var owner string
	var epoch uint64
	waitCond(t, 10*time.Second, "h1 mastership failover", func() bool {
		owner, epoch, ok = c.MasterOf("h1")
		return ok && owner != victim && epoch > victimEpoch
	})
	t.Logf("h1 failed over to %s (epoch %d -> %d)", owner, victimEpoch, epoch)

	// Zero-interruption: the strict recorder tolerates nothing — every
	// (key, seq) exactly once, in order, with intact counter state.
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
}

// TestWorkerRowsFreshThroughControllerFaults: the worker rows /api/v1/top
// serves keep refreshing while the first controller — the one a chaos outage
// always hits — is deaf to PacketIns, and after the controller then mastering
// h1 is killed. Any running controller's table can serve them.
func TestWorkerRowsFreshThroughControllerFaults(t *testing.T) {
	p := &Params{Keys: 8, PerKey: 50, Window: 25, Seed: 12}
	c, _ := newReplicatedHarness(t, p, false)
	if err := c.Submit(buildTopo(t, "conf-rows", 2), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	oldest := func() float64 {
		rows := c.TopSnapshot().Workers
		if len(rows) == 0 {
			return 1e9
		}
		age := 0.0
		for _, r := range rows {
			age = max(age, r.AgeSecs)
		}
		return age
	}
	// The topology's owner sweeps every 500 ms, so a served table never
	// holds a row much older than that.
	const fresh = 2.0
	staysFresh := func(what string) {
		t.Helper()
		waitCond(t, 10*time.Second, "rows "+what, func() bool { return oldest() < fresh })
		for end := time.Now().Add(4 * time.Second); time.Now().Before(end); time.Sleep(100 * time.Millisecond) {
			if age := oldest(); age >= fresh {
				t.Fatalf("%s: oldest worker row is %.2fs old", what, age)
			}
		}
	}

	c.Controller.BeginOutage()
	staysFresh("during an outage of the first controller")
	c.Controller.EndOutage()

	var victim string
	waitCond(t, 10*time.Second, "h1 has a master", func() bool {
		var ok bool
		victim, _, ok = c.MasterOf("h1")
		return ok
	})
	if err := c.KillController(victim); err != nil {
		t.Fatal(err)
	}
	staysFresh("after killing " + victim)
}
