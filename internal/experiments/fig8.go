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
	return runForwarding("Fig 8a", "Tuple forwarding throughput (tuples/s)", p, 0)
}

// Fig8b regenerates Fig 8(b): the same topology with guaranteed processing
// through one acker worker.
func Fig8b(p Params) Result {
	return runForwarding("Fig 8b", "Tuple forwarding with ACK (tuples/s)", p, 1)
}

func runForwarding(id, title string, p Params, ackers int) Result {
	p = p.WithDefaults()
	res := Result{ID: id, Title: title, Columns: []string{"LOCAL", "REMOTE"}}

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
		for _, place := range placements {
			tput, err := measureForwarding(cfg.mode, cfg.batch, place.hosts, ackers, p)
			if err != nil {
				res.Err = err
				return res
			}
			row.Values = append(row.Values, tput)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func measureForwarding(mode core.Mode, batch, hosts, ackers int, p Params) (float64, error) {
	e, err := startCluster(mode, hosts, func(c *core.Config) {
		if batch > 0 {
			c.DefaultBatchSize = batch
		}
	})
	if err != nil {
		return 0, err
	}
	defer e.stop()
	l, err := forwardingTopology("fwd", 1, ackers)
	if err != nil {
		return 0, err
	}
	if err := e.cluster.Submit(l, 10*time.Second); err != nil {
		return 0, err
	}
	return e.rate("seq.seen", p.Warmup, p.Measure), nil
}

// Fig8c regenerates Fig 8(c): the CDF of end-to-end tuple latency with
// acking, both workers on one host, Storm vs Typhoon batch sizes. Values
// are milliseconds at the 10th..100th percentile.
func Fig8c(p Params) Result {
	return runLatency("Fig 8c", "Tuple latency CDF, local (ms at P10..P100)", p, 1)
}

// Fig8d regenerates Fig 8(d): the remote-placement latency CDF.
func Fig8d(p Params) Result {
	return runLatency("Fig 8d", "Tuple latency CDF, remote (ms at P10..P100)", p, 2)
}

func runLatency(id, title string, p Params, hosts int) Result {
	p = p.WithDefaults()
	res := Result{
		ID: id, Title: title,
		Columns: []string{"P10", "P20", "P30", "P40", "P50", "P60", "P70", "P80", "P90", "P100"},
	}
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
		lat, err := measureLatency(cfg.mode, cfg.batch, hosts, p)
		if err != nil {
			res.Err = err
			return res
		}
		res.Rows = append(res.Rows, cdfRow(cfg.label, lat))
	}
	return res
}

func measureLatency(mode core.Mode, batch, hosts int, p Params) (*metrics.Histogram, error) {
	e, err := startCluster(mode, hosts, func(c *core.Config) {
		if batch > 0 {
			c.DefaultBatchSize = batch
		}
	})
	if err != nil {
		return nil, err
	}
	defer e.stop()
	l, err := forwardingTopology("lat", 1, 1)
	if err != nil {
		return nil, err
	}
	if err := e.cluster.Submit(l, 10*time.Second); err != nil {
		return nil, err
	}
	time.Sleep(p.Warmup + p.Measure)
	srcs := e.cluster.WorkersOf("lat", "src")
	if len(srcs) != 1 {
		return nil, fmt.Errorf("experiments: source worker missing")
	}
	return srcs[0].CompleteLatencies, nil
}
