package core

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"typhoon/internal/clock"
	"typhoon/internal/controller"
	"typhoon/internal/topology"
	"typhoon/internal/workload"
)

// TestOneControllerIsASetOfOne: a default cluster runs the replicated control
// plane with one member. ctl-0 holds every switch's lease at the first epoch,
// and /api/v1/controlplane shows it live with one held lease per host.
func TestOneControllerIsASetOfOne(t *testing.T) {
	c, err := NewCluster(Config{Hosts: []string{"h1", "h2"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	waitCond(t, 2*time.Second, "h1 and h2 mastered", func() bool {
		_, _, ok1 := c.MasterOf("h1")
		_, _, ok2 := c.MasterOf("h2")
		return ok1 && ok2
	})
	if owner, epoch, ok := c.MasterOf("h1"); owner != "ctl-0" || epoch != 1 || !ok {
		t.Fatalf("MasterOf(h1) = (%q, %d, %v), want (ctl-0, 1, true)", owner, epoch, ok)
	}

	rec := httptest.NewRecorder()
	c.ObserveHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/controlplane", nil))
	var body struct {
		Data controller.ControlPlaneInfo `json:"data"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("controlplane: %v\n%s", err, rec.Body.String())
	}
	info := body.Data
	if len(info.Controllers) != 1 || info.Controllers[0].ID != "ctl-0" || !info.Controllers[0].Live {
		t.Errorf("controllers = %+v, want ctl-0 alone and live", info.Controllers)
	}
	if len(info.Masters) != 2 {
		t.Fatalf("masters = %+v, want one lease per host", info.Masters)
	}
	for _, m := range info.Masters {
		if m.Owner != "ctl-0" || m.Expired {
			t.Errorf("lease %+v, want held by ctl-0", m)
		}
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

// TestStopLeaksNothing: after Stop, goroutines and file descriptors return to
// where they were before NewCluster — with one controller, with three, with
// three after a kill has left every switch's link to the victim redialing in
// backoff, and in the Storm baseline.
func TestStopLeaksNothing(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		kill string
	}{
		{"typhoon-1", Config{Controllers: 1}, ""},
		{"typhoon-3", Config{Controllers: 3}, ""},
		{"typhoon-3-killed", Config{Controllers: 3}, "ctl-0"},
		{"storm", Config{Mode: ModeStorm}, ""},
	}
	// The coarse clock's ticker is process-wide and never stops; start it
	// before the baseline so it counts there.
	clock.CoarseUnixNano()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			goroutines, fds := runtime.NumGoroutine(), openFDs(t)

			cfg := tc.cfg
			cfg.Hosts = []string{"h1", "h2"}
			cfg.DrainDelay = 10 * time.Millisecond
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Env.Set(workload.EnvStats, workload.NewStats(100*time.Millisecond))
			c.Env.Set(workload.EnvConfig, workload.NewConfig())
			b := topology.NewBuilder("leak", 1)
			b.Source("src", workload.LogicSeqSource, 1)
			b.Node("sink", workload.LogicSink, 2).ShuffleFrom("src")
			l, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(l, 10*time.Second); err != nil {
				c.Stop()
				t.Fatal(err)
			}
			if tc.kill != "" {
				if err := c.KillController(tc.kill); err != nil {
					c.Stop()
					t.Fatal(err)
				}
				time.Sleep(200 * time.Millisecond) // a few failed redials: the links back off
			}
			c.Stop()

			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > goroutines || openFDs(t) > fds {
				if time.Now().After(deadline) {
					var stacks bytes.Buffer
					_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
					t.Fatalf("after Stop: %d goroutines (baseline %d), %d fds (baseline %d)\n%s",
						runtime.NumGoroutine(), goroutines, openFDs(t), fds, stacks.String())
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
