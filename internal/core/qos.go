package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"typhoon/internal/controller"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
)

// QoSConfig configures multi-tenant QoS (Config.QoS).
type QoSConfig struct {
	// Enable turns QoS on (Typhoon mode): per-topology meters in every
	// switch, weighted fair queueing at switch and tunnel egress, and the
	// bandwidth-allocator control plane app reassigning meter rates from
	// observed demand.
	Enable bool
	// LinkCapacityBps is the per-host egress budget the bandwidth
	// allocator manages; zero selects the allocator's default.
	LinkCapacityBps uint64
	// Queues overrides the egress queue classes of every switch port and
	// tunnel; nil selects the standard three classes. Order matters: a
	// class's position is the queue ID flow rules select with set_queue.
	Queues []switchfabric.QueueClass
}

// DefaultQueueClasses is the standard three-class egress WFQ profile,
// indexed to match topology.QoSClassID: guaranteed traffic (and control
// punts, which ride queue 0 implicitly) outweighs burstable 2:1 and
// best-effort 8:1.
func DefaultQueueClasses() []switchfabric.QueueClass {
	return []switchfabric.QueueClass{
		{Name: topology.QoSGuaranteed, Weight: 8},
		{Name: topology.QoSBurstable, Weight: 4},
		{Name: topology.QoSBestEffort, Weight: 1},
	}
}

func (q QoSConfig) queueClasses() []switchfabric.QueueClass {
	if len(q.Queues) > 0 {
		return q.Queues
	}
	return DefaultQueueClasses()
}

// QoSHostRow is one host's data-plane QoS statistics.
type QoSHostRow struct {
	Host string `json:"host"`
	// MeterDrops counts frames dropped by meters on this host's switch.
	MeterDrops uint64                   `json:"meterDrops"`
	Meters     []switchfabric.MeterInfo `json:"meters,omitempty"`
	// Queues aggregates per-class egress queue counters across the
	// switch's ports.
	Queues []switchfabric.QueueStats `json:"queues,omitempty"`
}

// QoSStatusReport is the /api/v1/qos GET payload.
type QoSStatusReport struct {
	Enabled    bool                      `json:"enabled"`
	Topologies []controller.TopologyQoS  `json:"topologies,omitempty"`
	Hosts      []QoSHostRow              `json:"hosts,omitempty"`
	Queues     []switchfabric.QueueClass `json:"queueClasses,omitempty"`
}

// QoSStatus assembles the cluster's QoS view: the controller's per-topology
// class and rate assignment joined with per-host meter and queue counters.
func (c *Cluster) QoSStatus() QoSStatusReport {
	report := QoSStatusReport{Enabled: c.cfg.QoS.Enable}
	if !report.Enabled {
		return report
	}
	report.Queues = c.cfg.QoS.queueClasses()
	for _, ctl := range c.controllers {
		if ctl.Stopped() {
			continue
		}
		report.Topologies = ctl.QoSStatus()
		break
	}
	for _, name := range c.cfg.Hosts {
		h := c.hosts[name]
		if h == nil || h.Switch == nil {
			continue
		}
		row := QoSHostRow{
			Host:       name,
			MeterDrops: h.Switch.MeterDrops(),
			Meters:     h.Switch.MeterStatsSnapshot(),
		}
		// Aggregate queue counters per class across ports.
		agg := make(map[string]*switchfabric.QueueStats)
		var order []string
		for _, pi := range h.Switch.Ports() {
			p := h.Switch.Port(pi.No)
			if p == nil {
				continue
			}
			for _, qs := range p.QueueStats() {
				a := agg[qs.Class]
				if a == nil {
					a = &switchfabric.QueueStats{Class: qs.Class}
					agg[qs.Class] = a
					order = append(order, qs.Class)
				}
				a.Depth += qs.Depth
				a.Enqueued += qs.Enqueued
				a.Dropped += qs.Dropped
			}
		}
		for _, class := range order {
			row.Queues = append(row.Queues, *agg[class])
		}
		report.Hosts = append(report.Hosts, row)
	}
	return report
}

// SetTopologyQoS reassigns a running topology's rate class and configured
// bandwidth through the streaming manager; the generation bump makes every
// controller recompile rules with the new class queue and re-program
// meters on its next sync.
func (c *Cluster) SetTopologyQoS(topo, class string, rateBps uint64) error {
	if !c.cfg.QoS.Enable {
		return fmt.Errorf("core: QoS is not enabled on this cluster")
	}
	return c.Manager.SetQoS(topo, class, rateBps)
}

// serveQoS is the /api/v1/qos handler: GET reports QoSStatus, POST with
// topo, class and optional rate query parameters reassigns a topology.
func (c *Cluster) serveQoS(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.QoSStatus())
	case http.MethodPost:
		q := r.URL.Query()
		topo, class := q.Get("topo"), q.Get("class")
		if topo == "" || !topology.ValidQoSClass(class) || class == "" {
			http.Error(w, "topo and class (guaranteed|burstable|best-effort) required", http.StatusBadRequest)
			return
		}
		var rate uint64
		if rv := q.Get("rate"); rv != "" {
			parsed, err := strconv.ParseUint(rv, 10, 64)
			if err != nil {
				http.Error(w, "bad rate", http.StatusBadRequest)
				return
			}
			rate = parsed
		}
		if err := c.SetTopologyQoS(topo, class, rate); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	default:
		http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
	}
}
