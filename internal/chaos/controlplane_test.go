package chaos_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"typhoon/internal/chaos"
	"typhoon/internal/coordinator"
	"typhoon/internal/core"
	"typhoon/internal/paths"
)

// TestRecoveryControllerKillDuringRescale kills the controller driving a
// §3.5 stable rescale after it has paused the topology. The protocol must
// degrade to a pause, never a wedge: the dead driver's Rescale call
// returns an error instead of hanging, a surviving peer reaps the
// orphaned pause marker once the driver's heartbeat lapses, and tuple
// flow resumes under the new topology owner.
func TestRecoveryControllerKillDuringRescale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: partition smoke only")
	}
	c, stats, _ := newRecoveryCluster(t, func(cfg *core.Config) { cfg.Controllers = 3 })
	submitWordcount(t, c, stats, "wc-ctlkill", 26)

	// The master of h1 (the topology's first host) owns the topology's
	// control plane — killing it mid-rescale exercises driver death and
	// ownership failover in one stroke.
	driver, _, ok := c.MasterOf("h1")
	if !ok {
		t.Fatal("no master elected for h1")
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_, err := c.RescaleVia(ctx, driver, "wc-ctlkill", "split", 4)
		done <- err
	}()

	// Wait for phase 1: the driver has written its pause marker and is
	// draining the pipeline.
	waitCond(t, 10*time.Second, "pause marker from the driver", func() bool {
		raw, _, err := c.Store.Get(paths.Paused("wc-ctlkill"))
		return err == nil && string(raw) == driver
	})
	if err := c.Chaos.Apply(chaos.Spec{
		Kind: chaos.KindControllerKill, Controller: driver,
	}); err != nil {
		t.Fatal(err)
	}

	// Degradation: the dead driver's rescale aborts with an error.
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("rescale driven by a killed controller reported success")
		}
		t.Logf("rescale aborted: %v", err)
	case <-time.After(20 * time.Second):
		t.Fatal("rescale wedged after its driver was killed")
	}

	// Recovery: the new topology owner reaps the orphaned marker as soon
	// as the driver's registration heartbeat lapses...
	waitCond(t, 10*time.Second, "orphaned pause marker reaped", func() bool {
		_, _, err := c.Store.Get(paths.Paused("wc-ctlkill"))
		return errors.Is(err, coordinator.ErrNotFound)
	})
	// ...h1 mastership moves to a survivor...
	waitCond(t, 10*time.Second, "h1 mastership failover", func() bool {
		owner, _, ok := c.MasterOf("h1")
		return ok && owner != driver
	})
	// ...and re-activated sources drive tuples through the pipeline.
	before := stats.Counter("sink.total").Value()
	waitCond(t, 15*time.Second, "tuple flow after driver death", func() bool {
		return stats.Counter("sink.total").Value() > before+1000
	})
	if v := metricValue(c.Obs.Registry, "typhoon_chaos_injections_total",
		map[string]string{"kind": "controller-kill"}); v != 1 {
		t.Fatalf("controller-kill injection metric = %v, want 1", v)
	}
}
