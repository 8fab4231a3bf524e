package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"typhoon/internal/apiclient"
	"typhoon/internal/core"
	"typhoon/internal/topology"
	"typhoon/internal/worker"
	"typhoon/internal/workload"
)

// demoCluster starts a 2-host cluster running typhoon-cluster's demo
// word-count and returns it with a client on its API handler.
func demoCluster(t *testing.T, mode core.Mode) (*core.Cluster, *apiclient.Client) {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		Mode:              mode,
		Hosts:             []string{"h1", "h2"},
		HeartbeatInterval: 100 * time.Millisecond,
		DrainDelay:        50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.Env.Set(workload.EnvStats, workload.NewStats(time.Second))
	c.Env.Set(workload.EnvConfig, workload.NewConfig())

	b := topology.NewBuilder("wordcount", 1)
	b.Source("input", workload.LogicSentenceSource, 1)
	b.Node("split", workload.LogicSplitter, 2).ShuffleFrom("input")
	b.Node("count", workload.LogicCounter, 2).FieldsFrom("split", 0).Stateful()
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.ObserveHandler())
	t.Cleanup(srv.Close)
	return c, apiclient.New(strings.TrimPrefix(srv.URL, "http://"))
}

// await polls cond on a ticker until it holds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("timeout waiting for %s", what)
		}
	}
}

// verb runs one typhoon-ctl command line and returns what it printed.
func verb(t *testing.T, cl *apiclient.Client, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(cl, args, viewFlags{}, &out); err != nil {
		t.Fatalf("typhoon-ctl %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func workerIDs(ws []*worker.Worker) map[topology.WorkerID]bool {
	ids := make(map[topology.WorkerID]bool, len(ws))
	for _, w := range ws {
		ids[w.ID()] = true
	}
	return ids
}

// TestTopologyVerbsThroughAPI drives list, describe, scale, swap and kill
// against a live cluster through /api/v1 alone, in both data-plane modes:
// the CLI holds no coordinator connection and no manager of its own.
func TestTopologyVerbsThroughAPI(t *testing.T) {
	for name, mode := range map[string]core.Mode{"typhoon": core.ModeTyphoon, "storm": core.ModeStorm} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, cl := demoCluster(t, mode)

			if got := verb(t, cl, "list"); got != "wordcount\n" {
				t.Fatalf("list = %q", got)
			}
			before := verb(t, cl, "describe", "wordcount")
			for _, want := range []string{
				"topology wordcount (app 1, generation ",
				"  node input            logic=workload/sentence-source parallelism=1 [source]\n",
				"  node split            logic=workload/splitter parallelism=2\n",
				"  node count            logic=workload/counter parallelism=2 [stateful]\n",
				"  edge input -> split (shuffle)\n",
				"  edge split -> count (fields)\n",
			} {
				if !strings.Contains(before, want) {
					t.Fatalf("describe lacks %q:\n%s", want, before)
				}
			}
			if n := strings.Count(before, " split            host="); n != 2 {
				t.Fatalf("describe shows %d split workers, want 2:\n%s", n, before)
			}
			var gen int64
			if _, err := fmt.Sscanf(before, "topology wordcount (app 1, generation %d)", &gen); err != nil {
				t.Fatalf("describe header: %v\n%s", err, before)
			}

			if got := verb(t, cl, "scale", "wordcount", "split", "3"); got != "node split of wordcount scaled to 3\n" {
				t.Fatalf("scale = %q", got)
			}
			after := verb(t, cl, "describe", "wordcount")
			if want := fmt.Sprintf("generation %d)", gen+1); !strings.Contains(after, want) {
				t.Fatalf("describe after scale lacks %q:\n%s", want, after)
			}
			if n := strings.Count(after, " split            host="); n != 3 {
				t.Fatalf("describe after scale shows %d split workers, want 3:\n%s", n, after)
			}
			if c.Controller != nil { // the baseline has no network to program
				if err := c.Manager.WaitReady("wordcount", 10*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			await(t, "three splitters running", func() bool { return len(c.WorkersOf("wordcount", "split")) == 3 })

			old := workerIDs(c.WorkersOf("wordcount", "split"))
			if got := verb(t, cl, "swap", "wordcount", "split", workload.LogicForwarder); got != "node split of wordcount now runs workload/forwarder\n" {
				t.Fatalf("swap = %q", got)
			}
			await(t, "three fresh forwarders", func() bool {
				ws := c.WorkersOf("wordcount", "split")
				for _, w := range ws {
					if old[w.ID()] {
						return false
					}
				}
				return len(ws) == 3
			})
			if swapped := verb(t, cl, "describe", "wordcount"); !strings.Contains(swapped, "logic=workload/forwarder parallelism=3") {
				t.Fatalf("describe after swap:\n%s", swapped)
			}

			running := workerIDs(c.WorkersOf("wordcount", "count"))
			if got := verb(t, cl, "kill", "wordcount"); got != "topology wordcount killed\n" {
				t.Fatalf("kill = %q", got)
			}
			await(t, "count workers stopped", func() bool {
				for id := range running {
					if c.Worker("wordcount", id) != nil {
						return false
					}
				}
				return true
			})
			if got := verb(t, cl, "list"); got != "" {
				t.Fatalf("list after kill = %q, want empty", got)
			}
		})
	}
}

// TestUnknownVerbIsUsageWithoutARequest: a typo is answered locally.
func TestUnknownVerbIsUsageWithoutARequest(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { hits.Add(1) }))
	defer srv.Close()
	cl := apiclient.New(strings.TrimPrefix(srv.URL, "http://"))
	for _, args := range [][]string{nil, {"lsit"}, {"describe"}, {"scale", "wordcount", "split"}} {
		var out bytes.Buffer
		if err := run(cl, args, viewFlags{}, &out); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q to stdout", args, out.String())
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("%d request(s) reached the cluster for unknown or incomplete verbs", n)
	}
}
