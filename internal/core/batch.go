package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"typhoon/internal/agent"
	"typhoon/internal/control"
	"typhoon/internal/topology"
	"typhoon/internal/worker"
)

// BatchHostRow is one host's aggregated transport batching statistics.
type BatchHostRow struct {
	Host    string `json:"host"`
	Workers int    `json:"workers"`
	// TuplesSent / FramesSent are summed over the host's live worker
	// transports; their ratio is the realized batch occupancy.
	TuplesSent     uint64  `json:"tuplesSent"`
	FramesSent     uint64  `json:"framesSent"`
	TuplesReceived uint64  `json:"tuplesReceived"`
	BatchOccupancy float64 `json:"batchOccupancy"`
}

// BatchStatusReport is the /api/v1/batch GET payload: the live batching
// defaults new workers inherit plus per-host realized occupancy.
type BatchStatusReport struct {
	DefaultSize int `json:"defaultSize"`
	// FlushDeadlineNs is the bounded staging wait applied to new workers
	// (nanoseconds; negative means disabled).
	FlushDeadlineNs int64          `json:"flushDeadlineNs"`
	Hosts           []BatchHostRow `json:"hosts,omitempty"`
}

// BatchStatus assembles the cluster's batching view.
func (c *Cluster) BatchStatus() BatchStatusReport {
	var report BatchStatusReport
	for i, name := range c.cfg.Hosts {
		h := c.hosts[name]
		if h == nil || h.Agent == nil {
			continue
		}
		if i == 0 {
			size, deadline := h.Agent.BatchDefaults()
			report.DefaultSize = size
			if deadline == 0 {
				deadline = worker.DefaultFlushDeadline
			}
			report.FlushDeadlineNs = int64(deadline)
		}
		report.Hosts = append(report.Hosts, hostBatchRow(h.Agent))
	}
	return report
}

// hostBatchRow sums the transport counters of a host's live workers and
// derives the realized batch occupancy (tuples per frame).
func hostBatchRow(a *agent.Agent) BatchHostRow {
	row := BatchHostRow{Host: a.Host()}
	a.EachWorker(func(_ string, _ topology.WorkerID, w *worker.Worker) {
		s := w.Transport().Stats()
		row.Workers++
		row.TuplesSent += s.TuplesSent
		row.FramesSent += s.FramesSent
		row.TuplesReceived += s.TuplesReceived
	})
	if row.FramesSent > 0 {
		row.BatchOccupancy = float64(row.TuplesSent) / float64(row.FramesSent)
	}
	return row
}

// SetBatch retunes the data-plane batching knobs cluster-wide: the agents'
// defaults for future worker launches, and — through BATCH_SIZE control
// tuples broadcast by the owning controllers — every running worker (the
// size lands in its transport, the deadline in its loop). size <= 0 and
// deadline == 0 leave the respective knob unchanged; a negative deadline
// disables the bounded staging wait.
func (c *Cluster) SetBatch(size int, deadline time.Duration) error {
	if size <= 0 && deadline == 0 {
		return fmt.Errorf("core: nothing to change (size and deadline both unset)")
	}
	for _, h := range c.hosts {
		if h.Agent != nil {
			h.Agent.SetBatchDefaults(size, deadline)
		}
	}
	req := control.Encode(control.KindBatchSize, control.BatchSize{Size: size, FlushDeadline: deadline})
	for _, ctl := range c.controllers {
		if ctl.Stopped() {
			continue
		}
		for _, name := range ctl.TopologyNames() {
			if !ctl.OwnsTopology(name) {
				continue
			}
			_, p := ctl.Topology(name)
			if p == nil {
				continue
			}
			for _, as := range p.Workers {
				_ = ctl.SendControlTuple(name, as.Worker, req)
			}
		}
	}
	return nil
}

// serveBatch is the /api/v1/batch handler: GET reports BatchStatus, POST with
// size and/or deadline query parameters retunes the cluster (deadline is a
// Go duration; a negative one disables the bounded staging wait).
func (c *Cluster) serveBatch(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.BatchStatus())
	case http.MethodPost:
		q := r.URL.Query()
		var size int
		if sv := q.Get("size"); sv != "" {
			parsed, err := strconv.Atoi(sv)
			if err != nil || parsed <= 0 {
				http.Error(w, "bad size (positive integer required)", http.StatusBadRequest)
				return
			}
			size = parsed
		}
		var deadline time.Duration
		if dv := q.Get("deadline"); dv != "" {
			parsed, err := time.ParseDuration(dv)
			if err != nil || parsed == 0 {
				http.Error(w, "bad deadline (non-zero Go duration required; negative disables)", http.StatusBadRequest)
				return
			}
			deadline = parsed
		}
		if err := c.SetBatch(size, deadline); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	default:
		http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
	}
}
