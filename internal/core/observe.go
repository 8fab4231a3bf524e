package core

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"typhoon/internal/agent"
	"typhoon/internal/controller"
	"typhoon/internal/coordinator"
	"typhoon/internal/observe"
	"typhoon/internal/paths"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
)

// Observability bundles the cluster-wide observability layer: the metric
// registry every component registers into, the frame sampler that selects
// tuple-path traces, and the ring of completed traces.
type Observability struct {
	// Registry is the cluster's hierarchical metric registry.
	Registry *observe.Registry
	// Sampler selects emitted frames to carry a trace annex (Typhoon mode).
	Sampler *observe.Sampler
	// Traces holds recently completed tuple-path traces.
	Traces *observe.TraceLog
	// Collector exposes the controllers' worker statistics (nil in Storm
	// mode).
	Collector *controller.MetricsCollector
}

// newObservability builds the layer with the e2e latency histogram and the
// trace accounting pre-registered.
func newObservability(traceEvery int) *Observability {
	if traceEvery == 0 {
		traceEvery = observe.DefaultTraceEvery
	}
	o := &Observability{
		Registry: observe.NewRegistry(),
		Sampler:  observe.NewSampler(traceEvery),
		Traces:   observe.NewTraceLog(0),
	}
	o.Traces.SetLatencyHistogram(o.Registry.Histogram(
		"typhoon_trace_e2e_seconds",
		"Emit-to-dequeue span of sampled tuple-path traces.", nil))
	o.Registry.CounterFunc("typhoon_traces_recorded_total",
		"Completed tuple-path traces recorded (including evicted).",
		nil, o.Traces.Total)
	return o
}

// registerSwitch adds a collector exposing one switch's counters, rule and
// port population, and per-port egress queues.
func (o *Observability) registerSwitch(sw *switchfabric.Switch) {
	host := observe.Labels{"host": sw.Name()}
	o.Registry.AddCollector(func(emit func(observe.Sample)) {
		cnt := sw.CountersSnapshot()
		counter := func(name, help string, v uint64) {
			emit(observe.Sample{Name: name, Kind: observe.KindCounter, Help: help,
				Labels: host, Value: float64(v)})
		}
		counter("typhoon_switch_rx_frames_total", "Frames accepted from attached devices.", cnt.RxFrames)
		counter("typhoon_switch_tx_frames_total", "Frames delivered toward attached devices.", cnt.TxFrames)
		counter("typhoon_switch_forwarded_frames_total", "Frame deliveries made by the pipeline.", cnt.Forwarded)
		counter("typhoon_switch_replicated_frames_total", "Extra copies beyond the first delivery (switch-level fan-out).", cnt.Replicated)
		counter("typhoon_switch_dropped_frames_total", "Frames lost to table misses, malformed headers and full rings.", cnt.Dropped)
		counter("typhoon_switch_malformed_frames_total", "Frames rejected before lookup (short or corrupt header).", cnt.Malformed)
		counter("typhoon_switch_microflow_hits_total", "Frames forwarded via the microflow exact-match cache.", cnt.MicroflowHits)
		counter("typhoon_switch_microflow_misses_total", "Frames that missed the microflow cache (each one flow-table lookup).", cnt.MicroflowMisses)
		counter("typhoon_switch_meter_dropped_frames_total", "Frames dropped by QoS meters (rate policing).", cnt.MeterDrops)
		ports := sw.Ports()
		emit(observe.Sample{Name: "typhoon_switch_flow_rules", Kind: observe.KindGauge,
			Help: "Installed flow rules.", Labels: host, Value: float64(sw.RuleCount())})
		emit(observe.Sample{Name: "typhoon_switch_ports", Kind: observe.KindGauge,
			Help: "Attached switch ports.", Labels: host, Value: float64(len(ports))})
		for _, pi := range ports {
			p := sw.Port(pi.No)
			if p == nil {
				continue
			}
			emit(observe.Sample{Name: "typhoon_switch_port_queue_frames", Kind: observe.KindGauge,
				Help:   "Frames queued toward the port's device.",
				Labels: observe.Labels{"host": sw.Name(), "port": strconv.FormatUint(uint64(pi.No), 10)},
				Value:  float64(p.QueueLen())})
		}
	})
}

// registerAgentTransports adds a collector aggregating one host's worker
// transport counters — the realized batch occupancy (tuples per frame) is
// the knob /api/v1/batch tunes.
func (o *Observability) registerAgentTransports(a *agent.Agent) {
	host := observe.Labels{"host": a.Host()}
	o.Registry.AddCollector(func(emit func(observe.Sample)) {
		row := hostBatchRow(a)
		counter := func(name, help string, v uint64) {
			emit(observe.Sample{Name: name, Kind: observe.KindCounter, Help: help,
				Labels: host, Value: float64(v)})
		}
		counter("typhoon_transport_tuples_sent_total", "Tuples sent by the host's worker transports.", row.TuplesSent)
		counter("typhoon_transport_frames_sent_total", "Frames pushed into the switch by the host's worker transports.", row.FramesSent)
		counter("typhoon_transport_tuples_received_total", "Tuples received by the host's worker transports.", row.TuplesReceived)
		emit(observe.Sample{Name: "typhoon_transport_batch_occupancy", Kind: observe.KindGauge,
			Help:   "Realized tuples per emitted frame (batching effectiveness).",
			Labels: host, Value: row.BatchOccupancy})
	})
}

// TopSnapshot assembles the live cluster table: per-switch frame counters
// and the controller's cached per-worker statistics.
func (c *Cluster) TopSnapshot() observe.TopSnapshot {
	snap := observe.TopSnapshot{At: time.Now()}
	for _, name := range c.cfg.Hosts {
		h := c.hosts[name]
		if h == nil || h.Switch == nil {
			continue
		}
		cnt := h.Switch.CountersSnapshot()
		snap.Switches = append(snap.Switches, observe.SwitchRow{
			Host:       name,
			DPID:       h.Switch.DatapathID(),
			Ports:      len(h.Switch.Ports()),
			Rules:      h.Switch.RuleCount(),
			RxFrames:   cnt.RxFrames,
			TxFrames:   cnt.TxFrames,
			Forwarded:  cnt.Forwarded,
			Replicated: cnt.Replicated,
			Dropped:    cnt.Dropped,
		})
	}
	if c.Obs.Collector != nil {
		snap.Workers = c.Obs.Collector.Rows()
	}
	return snap
}

// ObserveHandler returns the cluster's observability HTTP handler: the
// /metrics Prometheus exposition, the JSON /api/* endpoints, and pprof.
func (c *Cluster) ObserveHandler() http.Handler {
	var chaosHandler http.Handler
	if c.Chaos != nil {
		chaosHandler = c.Chaos.Handler()
	}
	var rescaleHandler http.Handler
	if c.updater != nil {
		rescaleHandler = http.HandlerFunc(c.serveRescale)
	}
	var controlPlaneHandler http.Handler
	if c.Controller != nil {
		controlPlaneHandler = http.HandlerFunc(c.serveControlPlane)
	}
	var qosHandler http.Handler
	if c.cfg.QoS.Enable {
		qosHandler = http.HandlerFunc(c.serveQoS)
	}
	return observe.Handler(observe.ServerOptions{
		Registry:     c.Obs.Registry,
		Traces:       c.Obs.Traces,
		Top:          c.TopSnapshot,
		Chaos:        chaosHandler,
		Rescale:      rescaleHandler,
		ControlPlane: controlPlaneHandler,
		Qos:          qosHandler,
		Topologies:   http.HandlerFunc(c.serveTopologies),
		Batch:        http.HandlerFunc(c.serveBatch),
		Scenario:     http.HandlerFunc(c.serveScenario),
	})
}

// serveControlPlane reports controller registrations and per-switch
// mastership from coordinator state.
func (c *Cluster) serveControlPlane(w http.ResponseWriter, _ *http.Request) {
	info, err := controller.ReadControlPlaneInfo(c.Store)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(info)
}

// serveRescale executes a managed stable rescale over HTTP: POST with
// topo, node, and parallelism query parameters; the response is the
// protocol's JSON report. An optional timeout parameter (Go duration)
// bounds the wait.
func (c *Cluster) serveRescale(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	topo, node := q.Get("topo"), q.Get("node")
	parallelism, err := strconv.Atoi(q.Get("parallelism"))
	if topo == "" || node == "" || err != nil || parallelism < 1 {
		http.Error(w, "topo, node, and parallelism >= 1 required", http.StatusBadRequest)
		return
	}
	timeout := 30 * time.Second
	if tv := q.Get("timeout"); tv != "" {
		d, perr := time.ParseDuration(tv)
		if perr != nil || d <= 0 {
			http.Error(w, "bad timeout", http.StatusBadRequest)
			return
		}
		timeout = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	report, err := c.Rescale(ctx, topo, node, parallelism)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(report)
}

// serveTopologies is the /api/v1/topologies handler, the operator's door to
// the cluster's one streaming manager (both modes have one). GET lists the
// topology names, or with name=T returns T's stored {logical, physical}
// pair; POST with name=T applies op=scale (node, parallelism), op=swap
// (node, logic) or op=kill. The manager only rewrites the coordinator's
// global state — agents and controllers converge on it afterwards, so a
// POST returns before the new workers run (unlike /api/v1/rescale).
func (c *Cluster) serveTopologies(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name, op, node := q.Get("name"), q.Get("op"), q.Get("node")
	var out any = map[string]string{"status": "ok"}
	var err error
	switch {
	case r.Method == http.MethodGet && op == "" && name == "":
		out, err = c.Store.Children(paths.Topologies)
	case r.Method == http.MethodGet && op == "":
		var d struct {
			Logical  *topology.Logical  `json:"logical"`
			Physical *topology.Physical `json:"physical"`
		}
		d.Logical, d.Physical, err = c.Manager.Describe(name)
		out = d
	case r.Method != http.MethodPost:
		http.Error(w, "GET (list, describe) or POST (op) required", http.StatusMethodNotAllowed)
		return
	case name == "":
		http.Error(w, "name required", http.StatusBadRequest)
		return
	case op == "scale":
		parallelism, perr := strconv.Atoi(q.Get("parallelism"))
		if node == "" || perr != nil || parallelism < 1 {
			http.Error(w, "node and parallelism >= 1 required", http.StatusBadRequest)
			return
		}
		err = c.Manager.SetParallelism(name, node, parallelism)
	case op == "swap":
		if node == "" || q.Get("logic") == "" {
			http.Error(w, "node and logic required", http.StatusBadRequest)
			return
		}
		err = c.Manager.SwapLogic(name, node, q.Get("logic"))
	case op == "kill":
		err = c.Manager.Kill(name)
	default:
		http.Error(w, "op must be scale, swap or kill", http.StatusBadRequest)
		return
	}
	if errors.Is(err, coordinator.ErrNotFound) {
		http.Error(w, "unknown topology "+strconv.Quote(name), http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
