package controller

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"typhoon/internal/control"
	"typhoon/internal/observe"
	"typhoon/internal/packet"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// MetricsCollector is the observability control-plane app: it gathers the
// METRIC_RESP statistics workers push (and answers on-demand polls with
// METRIC_REQ sweeps through the data plane), keeps the latest row per
// worker, and exposes the cache both as registry samples and as the
// worker half of the /api/v1/top table.
type MetricsCollector struct {
	BaseApp

	// PollInterval spaces automatic METRIC_REQ sweeps issued from OnTick;
	// zero selects one second, negative disables automatic sweeps (workers
	// still push unsolicited METRIC_RESP in SDN mode).
	PollInterval time.Duration
	// TTL drops cached rows not refreshed within it; zero selects 30 s.
	TTL time.Duration

	mu   sync.Mutex
	rows map[string]map[topology.WorkerID]workerMetric // topo -> worker
	// lastPoll is tracked per controller ID: one collector instance may be
	// shared by every controller of a replicated control plane (so /api/v1/top
	// sees all shards), and each controller sweeps the topologies it owns
	// on its own schedule.
	lastPoll map[string]time.Time
	token    uint64
	polls    uint64
	resps    uint64
}

type workerMetric struct {
	resp control.MetricResp
	host string
	at   time.Time
}

// NewMetricsCollector builds the app.
func NewMetricsCollector() *MetricsCollector {
	return &MetricsCollector{
		rows:     make(map[string]map[topology.WorkerID]workerMetric),
		lastPoll: make(map[string]time.Time),
	}
}

// Name implements App.
func (m *MetricsCollector) Name() string { return "metrics-collector" }

// OnControlTuple implements App: cache METRIC_RESP rows keyed by the
// topology resolved from the sender's data-plane address.
func (m *MetricsCollector) OnControlTuple(c *Controller, host string, src packet.Addr, t tuple.Tuple) {
	kind, err := control.DecodeKind(t)
	if err != nil || kind != control.KindMetricResp {
		return
	}
	var mr control.MetricResp
	if control.DecodePayload(t, &mr) != nil {
		return
	}
	topoName := c.topoByApp(src.App())
	if topoName == "" {
		return
	}
	// PACKET_IN is broadcast to every controller of a replicated control
	// plane; a shared collector would record each response n times. Only
	// the topology's owner writes the row.
	if !c.OwnsTopology(topoName) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rows[topoName] == nil {
		m.rows[topoName] = make(map[topology.WorkerID]workerMetric)
	}
	m.rows[topoName][mr.Worker] = workerMetric{resp: mr, host: host, at: time.Now()}
	m.resps++
}

// OnTick implements App: issue a METRIC_REQ sweep at most once per
// PollInterval, and expire stale rows.
func (m *MetricsCollector) OnTick(c *Controller) {
	interval := m.PollInterval
	if interval == 0 {
		interval = time.Second
	}
	m.mu.Lock()
	due := interval > 0 && time.Since(m.lastPoll[c.ID()]) >= interval
	if due {
		m.lastPoll[c.ID()] = time.Now()
	}
	m.expireLocked()
	m.mu.Unlock()
	if due {
		m.Poll(c)
	}
}

// Poll sends one METRIC_REQ to every worker of every topology through the
// data plane (PACKET_OUT → switch → worker port). The HTTP layer's /api/v1/top
// handler calls it so a scrape always triggers a fresh sweep.
func (m *MetricsCollector) Poll(c *Controller) {
	m.mu.Lock()
	m.token++
	token := m.token
	m.polls++
	m.mu.Unlock()
	req := control.Encode(control.KindMetricReq, control.MetricReq{Token: token})
	for _, name := range c.TopologyNames() {
		// Sharded control plane: the topology's owner polls it; everyone
		// else stays quiet so workers see one METRIC_REQ stream.
		if !c.OwnsTopology(name) {
			continue
		}
		_, p := c.Topology(name)
		if p == nil {
			continue
		}
		for _, as := range p.Workers {
			_ = c.SendControlTuple(name, as.Worker, req)
		}
	}
}

func (m *MetricsCollector) expireLocked() {
	ttl := m.TTL
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	cutoff := time.Now().Add(-ttl)
	for topo, byWorker := range m.rows {
		for id, row := range byWorker {
			if row.at.Before(cutoff) {
				delete(byWorker, id)
			}
		}
		if len(byWorker) == 0 {
			delete(m.rows, topo)
		}
	}
}

// Rows returns the cached worker table sorted by topology, node, worker —
// the worker half of the observability top view.
func (m *MetricsCollector) Rows() []observe.WorkerRow {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked()
	now := time.Now()
	var out []observe.WorkerRow
	for topo, byWorker := range m.rows {
		for id, row := range byWorker {
			out = append(out, observe.WorkerRow{
				Topo:      topo,
				Node:      row.resp.Node,
				Worker:    uint32(id),
				Host:      row.host,
				QueueLen:  row.resp.QueueLen,
				Processed: row.resp.Processed,
				Emitted:   row.resp.Emitted,
				Dropped:   row.resp.Dropped,
				ProcSecs:  float64(row.resp.ProcNanos) / 1e9,
				AgeSecs:   now.Sub(row.at).Seconds(),
			})
		}
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
// gauge samples (typhoon_worker_*) plus its own sweep counters.
func (m *MetricsCollector) Register(reg *observe.Registry) {
	reg.CounterFunc("typhoon_collector_polls_total",
		"METRIC_REQ sweeps issued by the metrics collector.", nil,
		func() uint64 { m.mu.Lock(); defer m.mu.Unlock(); return m.polls })
	reg.CounterFunc("typhoon_collector_metric_resps_total",
		"METRIC_RESP control tuples cached by the metrics collector.", nil,
		func() uint64 { m.mu.Lock(); defer m.mu.Unlock(); return m.resps })
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
				Help: "Cumulative execute time of the worker.", Labels: labels, Value: r.ProcSecs})
			emit(observe.Sample{Name: "typhoon_worker_stats_age_seconds", Kind: observe.KindGauge,
				Help: "Age of the worker's last METRIC_RESP.", Labels: labels, Value: r.AgeSecs})
		}
	})
}

// topoByApp resolves a topology name from a data-plane application ID.
func (c *Controller) topoByApp(app uint16) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, ts := range c.topos {
		if ts.logical != nil && ts.logical.App == app {
			return name
		}
	}
	return ""
}

// TopologyNames lists the controller's cached topologies.
func (c *Controller) TopologyNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.topos))
	for name := range c.topos {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
