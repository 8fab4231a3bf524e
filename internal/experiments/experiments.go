// Package experiments regenerates the tables and figures of the paper's
// evaluation (§6) on the emulated cluster, each from one runner: Fig 8
// (forwarding throughput and latency, with and without acking), Fig 9
// (one-to-many), Fig 10 (fault recovery), Fig 11 (auto scaling) and Fig 12
// with Table 5 (live debugging overhead and the live-debugger comparison).
// Fig 14's runtime computation-logic update is examples/yahoo-ads, and the
// §3.5 stable update behind Fig 6 is this package's
// TestReconfigurationZeroLoss.
//
// Absolute numbers differ from the paper's DPDK/10G testbed; the harness
// reproduces the *shape* of each result: who wins, by what factor, and
// where behaviour changes. Durations are scaled down by default and can be
// stretched via Params.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"typhoon/internal/core"
	"typhoon/internal/metrics"
	"typhoon/internal/topology"
	"typhoon/internal/workload"
)

// Params scales every experiment.
type Params struct {
	// Warmup is discarded before measuring.
	Warmup time.Duration
	// Measure is the measurement window.
	Measure time.Duration
}

// WithDefaults fills missing fields.
func (p Params) WithDefaults() Params {
	if p.Warmup <= 0 {
		p.Warmup = time.Second
	}
	if p.Measure <= 0 {
		p.Measure = 2 * time.Second
	}
	return p
}

// Row is one printable result row.
type Row struct {
	Label  string
	Values []float64
	Text   string
}

// Result is one regenerated table or figure.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Err     error
}

// Print renders the result in the paper's row/series format.
func (r Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	if r.Err != nil {
		fmt.Fprintf(w, "  ERROR: %v\n", r.Err)
		return
	}
	if len(r.Columns) > 0 {
		fmt.Fprintf(w, "  %-28s %s\n", "", strings.Join(r.Columns, "  "))
	}
	for _, row := range r.Rows {
		if row.Text != "" {
			fmt.Fprintf(w, "  %-28s %s\n", row.Label, row.Text)
			continue
		}
		vals := make([]string, len(row.Values))
		for i, v := range row.Values {
			vals[i] = formatValue(v)
		}
		fmt.Fprintf(w, "  %-28s %s\n", row.Label, strings.Join(vals, "  "))
	}
}

func formatValue(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	case v == float64(int64(v)):
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// env is one running cluster with its measurement plumbing.
type env struct {
	cluster *core.Cluster
	stats   *workload.Stats
	cfg     *workload.Config
}

// startCluster builds a cluster in the given mode with fast test timings.
func startCluster(mode core.Mode, hosts int, mutate func(*core.Config)) (*env, error) {
	names := make([]string, hosts)
	for i := range names {
		names[i] = fmt.Sprintf("h%d", i+1)
	}
	cfg := core.Config{
		Mode:              mode,
		Hosts:             names,
		HeartbeatInterval: 200 * time.Millisecond,
		HeartbeatTimeout:  3 * time.Second,
		MonitorInterval:   300 * time.Millisecond,
		DrainDelay:        150 * time.Millisecond,
		RestartDelay:      300 * time.Millisecond,
		AckTimeout:        2 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{
		cluster: c,
		stats:   workload.NewStats(250 * time.Millisecond),
		cfg:     workload.NewConfig(),
	}
	c.Env.Set(workload.EnvStats, e.stats)
	c.Env.Set(workload.EnvConfig, e.cfg)
	return e, nil
}

func (e *env) stop() { e.cluster.Stop() }

// await polls cond every 10ms until it holds or timeout passes, reporting
// whether it held. Condition-based settling replaces fixed sleeps so the
// suite runs as fast as the cluster actually settles — and doesn't flake
// when -race makes it settle slower.
func await(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rate measures a counter's steady-state rate: warmup, then delta over the
// measurement window, in events per second.
func (e *env) rate(counter string, warmup, window time.Duration) float64 {
	time.Sleep(warmup)
	before := e.stats.Counter(counter).Value()
	start := time.Now()
	time.Sleep(window)
	delta := e.stats.Counter(counter).Value() - before
	return float64(delta) / time.Since(start).Seconds()
}

// modeName renders a cluster mode like the paper's labels.
func modeName(m core.Mode) string {
	if m == core.ModeStorm {
		return "STORM"
	}
	return "TYPHOON"
}

// forwardingTopology is the two-worker chain of §6.1.
func forwardingTopology(name string, app uint16, ackers int) (*topology.Logical, error) {
	b := topology.NewBuilder(name, app)
	if ackers > 0 {
		b.Ackers(ackers)
	}
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("sink", workload.LogicSeqChecker, 1).ShuffleFrom("src")
	return b.Build()
}

// downsample reduces a series to at most n points by averaging buckets.
func downsample(s []float64, n int) []float64 {
	if len(s) <= n || n <= 0 {
		return s
	}
	out := make([]float64, n)
	per := float64(len(s)) / float64(n)
	for i := 0; i < n; i++ {
		lo, hi := int(float64(i)*per), int(float64(i+1)*per)
		if hi > len(s) {
			hi = len(s)
		}
		sum := 0.0
		for _, v := range s[lo:hi] {
			sum += v
		}
		if hi > lo {
			out[i] = sum / float64(hi-lo)
		}
	}
	return out
}

// cdfRow renders the ten deciles P10…P100 as a row, in milliseconds.
func cdfRow(label string, lat *metrics.Histogram) Row {
	vals := make([]float64, 0, 10)
	for i := 1; i <= 10; i++ {
		vals = append(vals, float64(lat.Quantile(float64(i)/10).Microseconds())/1000.0)
	}
	return Row{Label: label, Values: vals}
}
