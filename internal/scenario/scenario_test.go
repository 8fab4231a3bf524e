// Package scenario_test exercises the scenario harness end to end on live
// clusters. It is an external test package because core imports scenario
// (the HTTP route) while these tests drive scenario through core.
package scenario_test

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"typhoon/internal/apiclient"
	"typhoon/internal/core"
	"typhoon/internal/observe"
	"typhoon/internal/scenario"
	"typhoon/internal/worker"
	"typhoon/internal/workload"
)

// newScenarioCluster builds a Typhoon cluster with fast test timings from
// a spec's cluster hints.
func newScenarioCluster(t *testing.T, cs *scenario.ClusterSpec) *core.Cluster {
	t.Helper()
	hosts := []string{"h1", "h2"}
	var qos core.QoSConfig
	if cs != nil {
		if cs.Hosts > 0 {
			hosts = hosts[:0]
			for i := 1; i <= cs.Hosts; i++ {
				hosts = append(hosts, "h"+string(rune('0'+i)))
			}
		}
		qos.Enable = cs.QoS
	}
	c, err := core.NewCluster(core.Config{
		Mode:              core.ModeTyphoon,
		Hosts:             hosts,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		MonitorInterval:   200 * time.Millisecond,
		DrainDelay:        100 * time.Millisecond,
		RestartDelay:      200 * time.Millisecond,
		DefaultBatchSize:  50,
		QoS:               qos,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func loadSpec(t *testing.T, name string) scenario.Spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.ParseSpec(raw)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestScenarioSpecParse validates every shipped spec and pins the
// validation errors hand-written specs most need.
func TestScenarioSpecParse(t *testing.T) {
	for _, name := range []string{
		"steady-skewed.json", "burst-rescale.json",
		"chaos-soak.json", "multi-tenant-contention.json",
	} {
		spec := loadSpec(t, name)
		if len(spec.Tenants) == 0 || spec.Duration <= 0 {
			t.Fatalf("%s: parsed to an empty spec", name)
		}
	}
	cases := []struct {
		raw  string
		want string
	}{
		{`{"name":"x","duration":"1s","tenants":[],"typo":1}`, "typo"},
		{`{"duration":"1s","tenants":[{"name":"a","trace":{"keys":4,"stages":[{"duration":"1s","rate":10}]}}],"chaos":[{"after":"0s","kind":"crash","tenant":"a"}]}`, "strict"},
		{`{"duration":"1s","tenants":[{"name":"a@b","trace":{"keys":4,"stages":[{"duration":"1s","rate":10}]}}]}`, "'@'"},
		{`{"duration":"1s","tenants":[{"name":"a","trace":{"keys":4,"stages":[{"duration":"1s","rate":10}]}}],"rescales":[{"after":"0s","tenant":"zz","parallelism":2}]}`, "unknown tenant"},
	}
	for _, tc := range cases {
		_, err := scenario.ParseSpec([]byte(tc.raw))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ParseSpec(%s) error = %v, want mention of %q", tc.raw, err, tc.want)
		}
	}
}

// TestScenarioSteadyStrict runs the steady-skewed spec briefly under the
// strict no-loss gate: every invariant must hold and the report must carry
// a multi-point percentile trajectory, not one end-of-run summary.
// TestOnePercentileDefinition records one seeded sample set through the
// three places a latency percentile is produced — a source worker's
// CompleteLatencies (Fig 8c/8d), a scenario LatencyReport (BENCH_e2e.json)
// and a registry histogram (/metrics) — and requires the same numbers.
func TestOnePercentileDefinition(t *testing.T) {
	src, err := worker.New(worker.Config{Logic: workload.LogicSeqSource, Source: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	traj := scenario.NewTrajectory(time.Second)
	scraped := observe.NewRegistry().Histogram("typhoon_x_seconds", "x", nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ { // log-uniform 10µs…1s
		d := time.Duration(1e4 * math.Pow(1e5, rng.Float64()))
		src.CompleteLatencies.Record(d)
		traj.Record(0, d)
		scraped.Record(d)
	}
	rep := traj.Report()
	for _, c := range []struct{ q, reportMs float64 }{{0.5, rep.P50ms}, {0.99, rep.P99ms}, {0.999, rep.P999ms}, {1, rep.MaxMs}} {
		want := src.CompleteLatencies.Quantile(c.q)
		if got := scraped.Quantile(c.q); got != want || want == 0 {
			t.Errorf("q=%v: /metrics histogram says %v, CompleteLatencies %v", c.q, got, want)
		}
		if got := time.Duration(math.Round(c.reportMs * float64(time.Millisecond))); got != want {
			t.Errorf("q=%v: scenario report says %v, CompleteLatencies %v", c.q, got, want)
		}
	}
}

func TestScenarioSteadyStrict(t *testing.T) {
	spec := loadSpec(t, "steady-skewed.json")
	spec.SampleInterval = workload.Duration(500 * time.Millisecond)
	c := newScenarioCluster(t, spec.Cluster)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	report, err := c.RunScenario(ctx, spec, scenario.Options{Duration: 3 * time.Second, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK {
		t.Fatalf("strict run failed:\n%s", report.Summary())
	}
	tr := report.Tenants[0]
	if tr.Emitted == 0 || tr.Delivered != tr.Emitted || tr.Gaps != 0 {
		t.Fatalf("emitted %d delivered %d gaps %d; want lossless delivery", tr.Emitted, tr.Delivered, tr.Gaps)
	}
	if len(tr.OpenLoop.Trajectory) < 3 {
		t.Fatalf("open-loop trajectory has %d points; want a sampled trajectory", len(tr.OpenLoop.Trajectory))
	}
	for _, pt := range tr.OpenLoop.Trajectory {
		if pt.Count == 0 || pt.P99ms < pt.P50ms {
			t.Fatalf("malformed trajectory point %+v", pt)
		}
	}
}

// TestScenarioOpenLoopStall pins the harness's whole reason for being
// open-loop: a 400ms injected stall at the source must show up in the
// intended-start (open-loop) p99, while the send-stamped (closed-loop)
// measurement of the very same run hides it — the coordinated-omission
// error a completion-paced generator bakes into its numbers.
func TestScenarioOpenLoopStall(t *testing.T) {
	spec := scenario.Spec{
		Name:           "stall",
		Seed:           5,
		Duration:       workload.Duration(3 * time.Second),
		SampleInterval: workload.Duration(500 * time.Millisecond),
		Tenants: []scenario.TenantSpec{{
			Name:        "alpha",
			Parallelism: 2,
			Trace: workload.TraceSpec{
				Keys:   16,
				Stages: []workload.TraceStage{{Duration: workload.Duration(time.Second), Rate: 800}},
				Loop:   true,
			},
		}},
		Chaos: []scenario.ChaosEvent{{
			After:    workload.Duration(time.Second),
			Kind:     "hang",
			Tenant:   "alpha",
			Node:     scenario.NodeSource,
			Duration: workload.Duration(400 * time.Millisecond),
		}},
	}
	spec = spec.WithDefaults()
	c := newScenarioCluster(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	report, err := c.RunScenario(ctx, spec, scenario.Options{Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK {
		t.Fatalf("stall run failed:\n%s", report.Summary())
	}
	tr := report.Tenants[0]
	open, closed := tr.OpenLoop.P99ms, tr.ClosedLoop.P99ms
	// ~13% of intended sends fall inside the 400ms stall window, so the
	// open-loop p99 must carry most of the stall.
	if open < 150 {
		t.Fatalf("open-loop p99 %.1fms does not reflect the 400ms stall", open)
	}
	// The closed-loop view of the same run times each tuple from its
	// actual (late) send, so the stall vanishes from it.
	if closed > open/2 {
		t.Fatalf("closed-loop p99 %.1fms vs open-loop %.1fms; expected the stall to be invisible closed-loop", closed, open)
	}
}

// TestScenarioChaosSoak is the soak gate: the shipped chaos-soak spec
// (partitions, crashes, netem loss, flow wipes, a rescale, two looping
// tenants) must hold every relaxed-mode invariant and produce trajectory
// reports. CI's nightly job runs it for minutes via SOAK_DURATION and
// uploads the BENCH_e2e.json written when BENCH_E2E_JSON names a path;
// the default tier-1 run keeps it short.
func TestScenarioChaosSoak(t *testing.T) {
	spec := loadSpec(t, "chaos-soak.json")
	duration := 8 * time.Second
	if env := os.Getenv("SOAK_DURATION"); env != "" {
		d, err := time.ParseDuration(env)
		if err != nil {
			t.Fatalf("bad SOAK_DURATION %q: %v", env, err)
		}
		duration = d
	}
	c := newScenarioCluster(t, spec.Cluster)
	ctx, cancel := context.WithTimeout(context.Background(), duration+2*time.Minute)
	defer cancel()
	report, err := c.RunScenario(ctx, spec, scenario.Options{Duration: duration, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if out := os.Getenv("BENCH_E2E_JSON"); out != "" {
		if werr := os.WriteFile(out, report.JSON(), 0o644); werr != nil {
			t.Errorf("write %s: %v", out, werr)
		}
	}
	if !report.OK {
		t.Fatalf("soak failed:\n%s", report.Summary())
	}
	if len(report.Schedule) == 0 {
		t.Fatal("soak applied no chaos; the schedule never fired")
	}
	for _, tr := range report.Tenants {
		if tr.Emitted == 0 || tr.Delivered == 0 {
			t.Fatalf("tenant %s moved no tuples", tr.Tenant)
		}
		if tr.Violations != 0 {
			t.Fatalf("tenant %s: %d conformance violations:\n%s", tr.Tenant, tr.Violations, strings.Join(tr.Samples, "\n"))
		}
		if len(tr.OpenLoop.Trajectory) < 2 {
			t.Fatalf("tenant %s: trajectory has %d points; want sampled percentiles over time", tr.Tenant, len(tr.OpenLoop.Trajectory))
		}
	}
}

// TestScenarioAPIRoundTrip drives a run through the full HTTP surface:
// typed client → /api/v1/scenario envelope route → cluster → report.
func TestScenarioAPIRoundTrip(t *testing.T) {
	c := newScenarioCluster(t, nil)
	srv := httptest.NewServer(c.ObserveHandler())
	defer srv.Close()
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "steady-skewed.json"))
	if err != nil {
		t.Fatal(err)
	}
	cl := apiclient.New(strings.TrimPrefix(srv.URL, "http://"))
	report, err := cl.ScenarioRun(raw, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK {
		t.Fatalf("API run failed:\n%s", report.Summary())
	}
	if report.Name != "steady-skewed" || len(report.Tenants) != 1 {
		t.Fatalf("unexpected report: %s", report.JSON())
	}
	if report.Tenants[0].OpenLoop.Count == 0 {
		t.Fatal("report carries no latency samples")
	}
	// Malformed specs must be rejected with the envelope error contract.
	if _, err := cl.ScenarioRun([]byte(`{"duration":"1s"}`), 0); err == nil {
		t.Fatal("bad spec accepted")
	}
}
