package controller

import (
	"sort"
	"strconv"
	"time"

	"typhoon/internal/observe"
	"typhoon/internal/topology"
)

// MetricsCollector is the exposition side of the controllers' worker
// statistics tables (workerstats.go): the worker half of the /api/v1/top
// table and the typhoon_worker_* registry samples. It holds no state.
type MetricsCollector struct {
	ctls []*Controller
}

// NewMetricsCollector builds the collector over a control plane's
// controllers.
func NewMetricsCollector(ctls ...*Controller) *MetricsCollector {
	return &MetricsCollector{ctls: ctls}
}

// Rows returns the worker table sorted by topology, node, worker — the
// worker half of the observability top view. Every running controller
// records every METRIC_RESP it is shown, so the newest row per (topology,
// worker) across them is current whichever one is killed or in an outage.
func (m *MetricsCollector) Rows() []observe.WorkerRow {
	type key struct {
		topo   string
		worker topology.WorkerID
	}
	newest := make(map[key]WorkerStat)
	for _, c := range m.ctls {
		if c.Stopped() {
			continue
		}
		for _, topo := range c.TopologyNames() {
			for id, row := range c.WorkerStats(topo) {
				if k := (key{topo, id}); row.At.After(newest[k].At) {
					newest[k] = row
				}
			}
		}
	}
	now := time.Now()
	out := make([]observe.WorkerRow, 0, len(newest))
	for k, row := range newest {
		out = append(out, observe.WorkerRow{
			Topo:      k.topo,
			Node:      row.Node,
			Worker:    uint32(k.worker),
			Host:      row.Host,
			QueueLen:  row.QueueLen,
			Processed: row.Processed,
			Emitted:   row.Emitted,
			Dropped:   row.Dropped,
			ProcSecs:  float64(row.ProcNanos) / 1e9,
			AgeSecs:   now.Sub(row.At).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Topo != out[j].Topo {
			return out[i].Topo < out[j].Topo
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}

// Register adds the collector's cached rows to a registry as per-worker
// gauge samples (typhoon_worker_*) plus the controllers' sweep counters.
func (m *MetricsCollector) Register(reg *observe.Registry) {
	reg.CounterFunc("typhoon_collector_polls_total",
		"METRIC_REQ sweeps the controllers sent, one per topology swept.", nil,
		func() (n uint64) {
			for _, c := range m.ctls {
				n += c.statsSweeps.Load()
			}
			return n
		})
	reg.CounterFunc("typhoon_collector_metric_resps_total",
		"METRIC_RESP control tuples cached by the metrics collector.", nil,
		func() (n uint64) {
			// Each controller counts what it was shown; the largest count
			// is the most complete observer's, and never steps back.
			for _, c := range m.ctls {
				n = max(n, c.statsResps.Load())
			}
			return n
		})
	reg.AddCollector(func(emit func(observe.Sample)) {
		for _, r := range m.Rows() {
			labels := observe.Labels{
				"topo": r.Topo, "node": r.Node,
				"worker": strconv.FormatUint(uint64(r.Worker), 10), "host": r.Host,
			}
			emit(observe.Sample{Name: "typhoon_worker_queue_frames", Kind: observe.KindGauge,
				Help: "Worker input backlog (decoded tuples plus switch-port queue).", Labels: labels, Value: float64(r.QueueLen)})
			emit(observe.Sample{Name: "typhoon_worker_processed_tuples_total", Kind: observe.KindCounter,
				Help: "Tuples executed by the worker.", Labels: labels, Value: float64(r.Processed)})
			emit(observe.Sample{Name: "typhoon_worker_emitted_tuples_total", Kind: observe.KindCounter,
				Help: "Tuples emitted by the worker.", Labels: labels, Value: float64(r.Emitted)})
			emit(observe.Sample{Name: "typhoon_worker_dropped_tuples_total", Kind: observe.KindCounter,
				Help: "Tuples or frames the worker's transport dropped.", Labels: labels, Value: float64(r.Dropped)})
			emit(observe.Sample{Name: "typhoon_worker_proc_seconds_total", Kind: observe.KindCounter,
				Help: "Cumulative time the worker spent dispatching batches that executed tuples (throttle waits excluded).", Labels: labels, Value: r.ProcSecs})
			emit(observe.Sample{Name: "typhoon_worker_stats_age_seconds", Kind: observe.KindGauge,
				Help: "Age of the worker's last METRIC_RESP.", Labels: labels, Value: r.AgeSecs})
		}
	})
}
