// Package apiclient is the typed Go client of a running cluster's one
// operator API — the versioned /api/v1 surface and its envelope contract
// ({"data": ...} on success, {"error": {"code", "message"}} on failure).
// Every typhoon-ctl subcommand speaks through this client; ad-hoc HTTP
// against the cluster belongs nowhere else.
package apiclient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"typhoon/internal/chaos"
	"typhoon/internal/controller"
	"typhoon/internal/observe"
	"typhoon/internal/scenario"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
)

// DefaultTimeout bounds one API round trip unless a call overrides it
// (Rescale derives its own from the requested rescale timeout).
const DefaultTimeout = 10 * time.Second

// Client talks to one cluster's observability HTTP endpoint
// (typhoon-cluster -metrics).
type Client struct {
	addr string // host:port
	hc   *http.Client
}

// New returns a client for the observability endpoint at addr (host:port).
func New(addr string) *Client {
	return &Client{addr: addr, hc: &http.Client{Timeout: DefaultTimeout}}
}

// Error is an API-level failure: the endpoint answered, but with the error
// half of the envelope (or a bare non-2xx status). Transport failures are
// returned as wrapped net errors instead.
type Error struct {
	// Status is the HTTP status code (mirrored by the envelope's code).
	Status int
	// Message is the server's human-readable description.
	Message string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", http.StatusText(e.Status), e.Message)
}

// get performs a GET against /api/v1/<path> and decodes the envelope's
// data into out (which may be nil to discard it).
func (c *Client) get(path string, query url.Values, out any) error {
	return c.do(c.hc, http.MethodGet, path, query, nil, out)
}

// post performs a POST against /api/v1/<path> with an optional JSON body.
func (c *Client) post(path string, query url.Values, body, out any) error {
	return c.do(c.hc, http.MethodPost, path, query, body, out)
}

// do is the envelope-decoding core every typed method rides on.
func (c *Client) do(hc *http.Client, method, path string, query url.Values, body, out any) error {
	u := "http://" + c.addr + "/api/v1/" + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("cannot reach cluster API at %s (%w); is typhoon-cluster running with -metrics?", c.addr, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var env observe.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		// Not an envelope at all — a proxy error page or a pre-/api/v1
		// server. Surface the status and body as-is.
		return &Error{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	if env.Error != nil {
		return &Error{Status: env.Error.Code, Message: env.Error.Message}
	}
	if resp.StatusCode != http.StatusOK {
		return &Error{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	if out != nil && len(env.Data) > 0 {
		if err := json.Unmarshal(env.Data, out); err != nil {
			return fmt.Errorf("apiclient: /api/v1/%s: malformed data payload: %w", path, err)
		}
	}
	return nil
}

// MetricsText fetches the raw Prometheus exposition from /metrics. This is
// the one unversioned surface — the text format is its own contract.
func (c *Client) MetricsText() ([]byte, error) {
	resp, err := c.hc.Get("http://" + c.addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("cannot reach cluster API at %s (%w); is typhoon-cluster running with -metrics?", c.addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &Error{Status: resp.StatusCode, Message: "metrics endpoint unavailable"}
	}
	return io.ReadAll(resp.Body)
}

// Metrics fetches the registry snapshot as structured samples.
func (c *Client) Metrics() ([]observe.Sample, error) {
	var out []observe.Sample
	err := c.get("metrics", nil, &out)
	return out, err
}

// Top fetches the live cluster table. Worker rows are the controllers'
// cached METRIC_RESPs, each with its age; the request sends nothing.
func (c *Client) Top() (observe.TopSnapshot, error) {
	var snap observe.TopSnapshot
	err := c.get("top", nil, &snap)
	return snap, err
}

// Traces fetches up to n recent completed tuple-path traces.
func (c *Client) Traces(n int) ([]observe.TraceRecord, error) {
	q := url.Values{}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	var out []observe.TraceRecord
	err := c.get("traces", q, &out)
	return out, err
}

// ChaosApply injects one fault and returns the engine's description of
// what it applied.
func (c *Client) ChaosApply(s chaos.Spec) (string, error) {
	var out struct {
		Applied string `json:"applied"`
	}
	if err := c.post("chaos", nil, s, &out); err != nil {
		return "", err
	}
	return out.Applied, nil
}

// ChaosLog fetches the engine's injection record, oldest first.
func (c *Client) ChaosLog() ([]chaos.Injection, error) {
	var out []chaos.Injection
	err := c.get("chaos", nil, &out)
	return out, err
}

// Rescale runs a managed stable rescale and returns its report. A zero
// timeout selects the server default; otherwise the HTTP client waits a
// grace period past the requested bound so the server, not the transport,
// reports expiry.
func (c *Client) Rescale(topo, node string, parallelism int, timeout time.Duration) (controller.RescaleReport, error) {
	q := url.Values{}
	q.Set("topo", topo)
	q.Set("node", node)
	q.Set("parallelism", strconv.Itoa(parallelism))
	hc := &http.Client{Timeout: 35 * time.Second}
	if timeout > 0 {
		q.Set("timeout", timeout.String())
		hc.Timeout = timeout + 5*time.Second
	}
	var report controller.RescaleReport
	err := c.do(hc, http.MethodPost, "rescale", q, nil, &report)
	return report, err
}

// ScenarioRun executes a declarative scenario spec on the cluster via
// /api/v1/scenario and returns its report. duration > 0 overrides the
// spec's play duration. Scenario runs last as long as their spec says, so
// the round trip carries no client-side timeout; cancel by killing the
// process (the server aborts the run when the request context drops).
func (c *Client) ScenarioRun(spec json.RawMessage, duration time.Duration) (*scenario.Report, error) {
	q := url.Values{}
	if duration > 0 {
		q.Set("duration", duration.String())
	}
	hc := &http.Client{}
	var report scenario.Report
	if err := c.do(hc, http.MethodPost, "scenario", q, spec, &report); err != nil {
		return nil, err
	}
	return &report, nil
}

// Topologies lists the names of the submitted topologies, sorted.
func (c *Client) Topologies() ([]string, error) {
	var names []string
	err := c.get("topologies", nil, &names)
	return names, err
}

// Describe fetches one topology's stored logical and physical state.
func (c *Client) Describe(name string) (*topology.Logical, *topology.Physical, error) {
	var d struct {
		Logical  *topology.Logical  `json:"logical"`
		Physical *topology.Physical `json:"physical"`
	}
	if err := c.get("topologies", url.Values{"name": {name}}, &d); err != nil {
		return nil, nil, err
	}
	return d.Logical, d.Physical, nil
}

// Scale sets a node's parallelism through the streaming manager: the
// logical topology is rewritten and rescheduled, and agents and controllers
// converge on it after the call returns. Keyed state is not migrated —
// Rescale is the managed protocol for stateful nodes.
func (c *Client) Scale(name, node string, parallelism int) error {
	return c.post("topologies", url.Values{"name": {name}, "op": {"scale"},
		"node": {node}, "parallelism": {strconv.Itoa(parallelism)}}, nil, nil)
}

// SwapLogic replaces a node's computation logic with fresh workers.
func (c *Client) SwapLogic(name, node, logic string) error {
	return c.post("topologies", url.Values{"name": {name}, "op": {"swap"},
		"node": {node}, "logic": {logic}}, nil, nil)
}

// Kill removes a topology; agents stop its workers and the controllers tear
// down its rules.
func (c *Client) Kill(name string) error {
	return c.post("topologies", url.Values{"name": {name}, "op": {"kill"}}, nil, nil)
}

// ControlPlane fetches controller registrations and per-switch mastership.
func (c *Client) ControlPlane() (controller.ControlPlaneInfo, error) {
	var info controller.ControlPlaneInfo
	err := c.get("controlplane", nil, &info)
	return info, err
}

// QoSHostRow is one host's data-plane QoS statistics. It mirrors the wire
// format of core's QoS status report (pinned by a compatibility test).
type QoSHostRow struct {
	Host       string                    `json:"host"`
	MeterDrops uint64                    `json:"meterDrops"`
	Meters     []switchfabric.MeterInfo  `json:"meters,omitempty"`
	Queues     []switchfabric.QueueStats `json:"queues,omitempty"`
}

// QoSStatus is the /api/v1/qos GET payload: per-topology rate classes and
// per-host meter and egress-queue statistics.
type QoSStatus struct {
	Enabled    bool                      `json:"enabled"`
	Topologies []controller.TopologyQoS  `json:"topologies,omitempty"`
	Hosts      []QoSHostRow              `json:"hosts,omitempty"`
	Queues     []switchfabric.QueueClass `json:"queueClasses,omitempty"`
}

// BatchHostRow is one host's aggregated transport batching statistics. It
// mirrors the wire format of core's batch status report.
type BatchHostRow struct {
	Host           string  `json:"host"`
	Workers        int     `json:"workers"`
	TuplesSent     uint64  `json:"tuplesSent"`
	FramesSent     uint64  `json:"framesSent"`
	TuplesReceived uint64  `json:"tuplesReceived"`
	BatchOccupancy float64 `json:"batchOccupancy"`
}

// BatchStatus is the /api/v1/batch GET payload: the batching defaults new
// workers inherit plus realized per-host occupancy.
type BatchStatus struct {
	DefaultSize     int            `json:"defaultSize"`
	FlushDeadlineNs int64          `json:"flushDeadlineNs"`
	Hosts           []BatchHostRow `json:"hosts,omitempty"`
}

// Batch fetches the cluster's batching status.
func (c *Client) Batch() (BatchStatus, error) {
	var st BatchStatus
	err := c.get("batch", nil, &st)
	return st, err
}

// BatchSet retunes the data-plane batching knobs cluster-wide. size <= 0
// and deadline == 0 leave the respective knob unchanged; a negative
// deadline disables the bounded staging wait.
func (c *Client) BatchSet(size int, deadline time.Duration) error {
	q := url.Values{}
	if size > 0 {
		q.Set("size", strconv.Itoa(size))
	}
	if deadline != 0 {
		q.Set("deadline", deadline.String())
	}
	return c.post("batch", q, nil, nil)
}

// QoS fetches the cluster's QoS status.
func (c *Client) QoS() (QoSStatus, error) {
	var st QoSStatus
	err := c.get("qos", nil, &st)
	return st, err
}

// QoSSet reassigns a running topology's rate class and, optionally, its
// configured bandwidth (rateBps 0 leaves the class's rate to the online
// bandwidth allocator).
func (c *Client) QoSSet(topo, class string, rateBps uint64) error {
	q := url.Values{}
	q.Set("topo", topo)
	q.Set("class", class)
	if rateBps > 0 {
		q.Set("rate", strconv.FormatUint(rateBps, 10))
	}
	return c.post("qos", q, nil, nil)
}
