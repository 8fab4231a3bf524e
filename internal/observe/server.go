package observe

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// SwitchRow is one switch's line in the cluster top view.
type SwitchRow struct {
	Host       string `json:"host"`
	DPID       uint64 `json:"dpid"`
	Ports      int    `json:"ports"`
	Rules      int    `json:"rules"`
	RxFrames   uint64 `json:"rxFrames"`
	TxFrames   uint64 `json:"txFrames"`
	Forwarded  uint64 `json:"forwarded"`
	Replicated uint64 `json:"replicated"`
	Dropped    uint64 `json:"dropped"`
}

// WorkerRow is one worker's line in the cluster top view, derived from the
// controller's METRIC_RESP cache.
type WorkerRow struct {
	Topo      string  `json:"topo"`
	Node      string  `json:"node"`
	Worker    uint32  `json:"worker"`
	Host      string  `json:"host"`
	QueueLen  int     `json:"queueLen"`
	Processed uint64  `json:"processed"`
	Emitted   uint64  `json:"emitted"`
	Dropped   uint64  `json:"dropped"`
	ProcSecs  float64 `json:"procSecs"`
	// AgeSecs is how stale this row is (time since the METRIC_RESP).
	AgeSecs float64 `json:"ageSecs"`
}

// TopSnapshot is the live cluster table served at /api/v1/top.
type TopSnapshot struct {
	At       time.Time   `json:"at"`
	Switches []SwitchRow `json:"switches"`
	Workers  []WorkerRow `json:"workers"`
}

// ServerOptions wires the pieces the HTTP endpoint exposes.
type ServerOptions struct {
	// Registry backs /metrics and /api/v1/metrics.
	Registry *Registry
	// Traces backs /api/v1/traces; nil disables the route.
	Traces *TraceLog
	// Top builds the /api/v1/top table; nil disables the route. It reads
	// cached rows, each carrying its age; serving it sends nothing.
	Top func() TopSnapshot
	// Chaos, when non-nil, is mounted at /api/v1/chaos (fault injection
	// over HTTP; GET lists injections, POST applies a fault spec).
	Chaos http.Handler
	// Rescale, when non-nil, is mounted at /api/v1/rescale (POST triggers a
	// managed stable rescale and returns its report).
	Rescale http.Handler
	// ControlPlane, when non-nil, is mounted at /api/v1/controlplane (GET
	// returns controller registrations and per-switch mastership).
	ControlPlane http.Handler
	// Qos, when non-nil, is mounted at /api/v1/qos (GET reports per-topology
	// rate classes and meter/queue statistics, POST reassigns a topology's
	// class and configured rate).
	Qos http.Handler
	// Topologies, when non-nil, is mounted at /api/v1/topologies (GET lists
	// topologies or describes one, POST scales a node, swaps its logic or
	// kills the topology through the streaming manager).
	Topologies http.Handler
	// Batch, when non-nil, is mounted at /api/v1/batch (GET reports batching
	// defaults and realized per-host occupancy, POST retunes batch size
	// and flush deadline cluster-wide).
	Batch http.Handler
	// Scenario, when non-nil, is mounted at /api/v1/scenario (POST runs a
	// declarative scenario spec and returns its report).
	Scenario http.Handler
}

// Envelope is the uniform /api/v1 response body: exactly one of Data and
// Error is set.
type Envelope struct {
	Data  json.RawMessage `json:"data,omitempty"`
	Error *APIError       `json:"error,omitempty"`
}

// APIError is the error half of the /api/v1 envelope.
type APIError struct {
	// Code mirrors the HTTP status code.
	Code int `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
}

// Handler assembles the observability HTTP mux. The versioned surface is
// /api/v1/*, every response wrapped in the Envelope contract:
//
//	/metrics                 Prometheus text exposition
//	/api/v1/metrics          registry samples as JSON
//	/api/v1/top              live cluster table (switches + workers)
//	/api/v1/traces?n=N       recent completed tuple-path traces
//	/api/v1/chaos            fault injection (GET log, POST spec)
//	/api/v1/rescale          managed stable rescale (POST topo/node/parallelism)
//	/api/v1/controlplane     controller registrations and switch mastership
//	/api/v1/qos              rate classes and meter/queue stats (GET), class/rate set (POST)
//	/api/v1/topologies       list / describe (GET), scale / swap / kill (POST name, op)
//	/api/v1/batch            batching defaults and occupancy (GET), size/deadline set (POST)
//	/api/v1/scenario         declarative scenario run (POST spec, returns report)
//	/debug/pprof/*           standard Go profiling endpoints
func Handler(o ServerOptions) http.Handler {
	mux := http.NewServeMux()
	// route mounts a handler at /api/v1/<name> behind the envelope contract.
	route := func(name string, h http.Handler) {
		mux.Handle("/api/v1/"+name, envelopeWrap(h))
	}
	if o.Registry != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = o.Registry.WritePrometheus(w)
		})
		route("metrics", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, o.Registry.Snapshot())
		}))
	}
	if o.Traces != nil {
		route("traces", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n, _ := strconv.Atoi(r.URL.Query().Get("n"))
			writeJSON(w, o.Traces.Recent(n))
		}))
	}
	if o.Top != nil {
		route("top", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, o.Top())
		}))
	}
	if o.Chaos != nil {
		route("chaos", o.Chaos)
	}
	if o.Rescale != nil {
		route("rescale", o.Rescale)
	}
	if o.ControlPlane != nil {
		route("controlplane", o.ControlPlane)
	}
	if o.Qos != nil {
		route("qos", o.Qos)
	}
	if o.Topologies != nil {
		route("topologies", o.Topologies)
	}
	if o.Batch != nil {
		route("batch", o.Batch)
	}
	if o.Scenario != nil {
		route("scenario", o.Scenario)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// envelopeWrap is the one place the /api/v1 envelope contract is enforced:
// it records a plain handler's response and rewrites it, success payloads to
// {"data": ...}, error statuses to {"error": {"code": ..., "message": ...}}
// with the status preserved.
func envelopeWrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &responseRecorder{header: make(http.Header), code: http.StatusOK}
		h.ServeHTTP(rec, r)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.code)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if rec.code >= 400 {
			_ = enc.Encode(Envelope{Error: &APIError{
				Code:    rec.code,
				Message: strings.TrimSpace(rec.buf.String()),
			}})
			return
		}
		body := bytes.TrimSpace(rec.buf.Bytes())
		if len(body) == 0 {
			body = []byte("null")
		}
		if !json.Valid(body) {
			// Plain-text success bodies become JSON strings.
			body, _ = json.Marshal(string(body))
		}
		_ = enc.Encode(Envelope{Data: body})
	})
}

// responseRecorder captures a handler's response for envelope rewriting.
type responseRecorder struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(code int) { r.code = code }

func (r *responseRecorder) Write(p []byte) (int, error) { return r.buf.Write(p) }
