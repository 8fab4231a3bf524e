package controller

import (
	"time"

	"typhoon/internal/control"
	"typhoon/internal/packet"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// Worker statistics (Fig 4, carried by Table 2's METRIC_REQ/METRIC_RESP) are
// the one cross-layer signal every §4 app lives off, so the app host owns the
// mechanism once: the PacketIn path records each METRIC_RESP in a table keyed
// (topology, worker), the tick sweeps owned topologies with METRIC_REQ, and
// apps read with WorkerStats and ask with RequestWorkerStats. Worker IDs
// restart at 1 in every topology, so no narrower key is correct.
//
// Every controller of a replicated control plane is shown every PacketIn, so
// each holds a complete table and a standby is warm when it inherits a
// topology; only sending requests is gated on ownership.
const (
	// statsSweepInterval is the host's own sweep cadence for topologies no
	// app is asking about. Workers send statistics only when asked, so an
	// owned topology's rows are never older than this plus one tick.
	statsSweepInterval = 500 * time.Millisecond
	// statsTTL is how long a row outlives its last METRIC_RESP.
	statsTTL = 30 * time.Second
)

// WorkerStat is a worker's newest METRIC_RESP, the host whose switch punted
// it, and when it arrived.
type WorkerStat struct {
	control.MetricResp
	Host string
	At   time.Time
}

// recordWorkerStats stores a METRIC_RESP control tuple under the topology
// its sender's data-plane address belongs to; other kinds are ignored.
func (c *Controller) recordWorkerStats(host string, src packet.Addr, t tuple.Tuple) {
	if kind, err := control.DecodeKind(t); err != nil || kind != control.KindMetricResp {
		return
	}
	var mr control.MetricResp
	if control.DecodePayload(t, &mr) != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ts := range c.topos {
		if ts.logical != nil && ts.logical.App == src.App() {
			if ts.stats == nil {
				ts.stats = make(map[topology.WorkerID]WorkerStat)
			}
			ts.stats[mr.Worker] = WorkerStat{MetricResp: mr, Host: host, At: time.Now()}
			c.statsResps.Add(1)
			return
		}
	}
}

// WorkerStats returns the unexpired statistics rows of one topology.
func (c *Controller) WorkerStats(topoName string) map[topology.WorkerID]WorkerStat {
	cutoff := time.Now().Add(-statsTTL)
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.topos[topoName]
	if ts == nil {
		return nil
	}
	out := make(map[topology.WorkerID]WorkerStat, len(ts.stats))
	for id, row := range ts.stats {
		if row.At.Before(cutoff) {
			delete(ts.stats, id)
			continue
		}
		out[id] = row
	}
	return out
}

// RequestWorkerStats sends one METRIC_REQ to every worker of a topology
// through the data plane (PACKET_OUT → switch → worker port). It is a no-op
// on a controller that does not own the topology or is in a chaos outage, and
// a topology is swept once per tick however many apps ask. Answers land in
// the table, not with the caller.
func (c *Controller) RequestWorkerStats(topoName string) {
	if c.outage.Load() || !c.OwnsTopology(topoName) {
		return
	}
	tick := c.tickNo.Load() + 1
	c.mu.Lock()
	ts := c.topos[topoName]
	if ts == nil || ts.physical == nil || ts.statsTick == tick {
		c.mu.Unlock()
		return
	}
	ts.statsTick, ts.statsAsked = tick, time.Now()
	workers := ts.physical.Workers
	c.mu.Unlock()
	c.statsSweeps.Add(1)
	// Token 0: the updater's drain barrier correlates on its own non-zero
	// tokens and must not count these.
	req := control.Encode(control.KindMetricReq, control.MetricReq{})
	for _, as := range workers {
		_ = c.SendControlTuple(topoName, as.Worker, req)
	}
}

// sweepStaleWorkerStats is the host's own sweep, run at the top of a tick:
// it asks for every topology nobody has asked about for statsSweepInterval,
// so the table stays fresh with no app deployed.
func (c *Controller) sweepStaleWorkerStats() {
	now := time.Now()
	var stale []string
	c.mu.Lock()
	for name, ts := range c.topos {
		if now.Sub(ts.statsAsked) >= statsSweepInterval {
			stale = append(stale, name)
		}
	}
	c.mu.Unlock()
	for _, name := range stale {
		c.RequestWorkerStats(name)
	}
}
