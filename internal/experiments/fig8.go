package experiments

import (
	"fmt"
	"time"

	"typhoon/internal/core"
	"typhoon/internal/metrics"
)

// BatchSizes are the Typhoon I/O batch sizes swept in Fig 8.
var BatchSizes = []int{100, 250, 500, 1000}

// placements are the LOCAL / REMOTE configurations of §6.1.
var placements = []struct {
	name  string
	hosts int
}{
	{"LOCAL", 1},
	{"REMOTE", 2},
}

// Fig8a regenerates Fig 8(a): maximum tuple forwarding throughput of the
// two-worker topology, Storm vs Typhoon at several batch sizes, with both
// workers co-located (LOCAL) and on separate hosts (REMOTE).
func Fig8a(p Params) Result {
	res := Result{ID: "Fig 8a", Title: "Tuple forwarding throughput (tuples/s)", Columns: []string{"LOCAL", "REMOTE"}}
	res.Err = runForwarding(p, 0, &res, nil)
	return res
}

// Fig8bcd regenerates Fig 8(b), 8(c) and 8(d) from one set of runs: the
// same topology with guaranteed processing through one acker worker. Each
// run fills one Fig 8b throughput cell and, from its source's completion
// latencies, one row of the CDF for its placement: Fig 8c for LOCAL, Fig 8d
// for REMOTE. CDF values are milliseconds at the 10th..100th percentile.
func Fig8bcd(p Params) []Result {
	deciles := []string{"P10", "P20", "P30", "P40", "P50", "P60", "P70", "P80", "P90", "P100"}
	out := []Result{
		{ID: "Fig 8b", Title: "Tuple forwarding with ACK (tuples/s)", Columns: []string{"LOCAL", "REMOTE"}},
		{ID: "Fig 8c", Title: "Tuple latency CDF, local (ms at P10..P100)", Columns: deciles},
		{ID: "Fig 8d", Title: "Tuple latency CDF, remote (ms at P10..P100)", Columns: deciles},
	}
	if err := runForwarding(p, 1, &out[0], out[1:]); err != nil {
		for i := range out {
			out[i].Err = err
		}
	}
	return out
}

// runForwarding runs Storm and Typhoon at every batch size in both
// placements. Each run adds its rate to tput's row for the configuration
// and, when cdfs is given, its latency CDF to cdfs[placement].
func runForwarding(p Params, ackers int, tput *Result, cdfs []Result) error {
	p = p.WithDefaults()
	type config struct {
		label string
		mode  core.Mode
		batch int
	}
	configs := []config{{"STORM", core.ModeStorm, 0}}
	for _, b := range BatchSizes {
		configs = append(configs, config{fmt.Sprintf("TYPHOON (%d)", b), core.ModeTyphoon, b})
	}
	for _, cfg := range configs {
		row := Row{Label: cfg.label}
		for i, place := range placements {
			rate, lat, err := measureForwarding(cfg.mode, cfg.batch, place.hosts, ackers, p)
			if err != nil {
				return err
			}
			row.Values = append(row.Values, rate)
			if cdfs != nil {
				cdfs[i].Rows = append(cdfs[i].Rows, cdfRow(cfg.label, lat))
			}
		}
		tput.Rows = append(tput.Rows, row)
	}
	return nil
}

// measureForwarding runs one forwarding configuration and returns the
// sink's rate and the source's tuple completion latencies (empty unless
// acked).
func measureForwarding(mode core.Mode, batch, hosts, ackers int, p Params) (float64, *metrics.Histogram, error) {
	e, err := startCluster(mode, hosts, func(c *core.Config) {
		if batch > 0 {
			c.DefaultBatchSize = batch
		}
	})
	if err != nil {
		return 0, nil, err
	}
	defer e.stop()
	l, err := forwardingTopology("fwd", 1, ackers)
	if err != nil {
		return 0, nil, err
	}
	if err := e.cluster.Submit(l, 10*time.Second); err != nil {
		return 0, nil, err
	}
	rate := e.rate("seq.seen", p.Warmup, p.Measure)
	srcs := e.cluster.WorkersOf("fwd", "src")
	if len(srcs) != 1 {
		return 0, nil, fmt.Errorf("experiments: source worker missing")
	}
	return rate, srcs[0].CompleteLatencies, nil
}
