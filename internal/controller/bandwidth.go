package controller

import (
	"fmt"
	"sort"
	"sync"

	"typhoon/internal/openflow"
	"typhoon/internal/topology"
)

// TopologyQoS is one topology's row of the QoS status surface: its rate
// class, the operator-configured rate, and the bandwidth allocator's
// current per-host meter assignment (0 = admit everything).
type TopologyQoS struct {
	Topology      string            `json:"topology"`
	Class         string            `json:"class"`
	ConfiguredBps uint64            `json:"configuredBps"`
	HostRates     map[string]uint64 `json:"hostRates,omitempty"`
}

// QoSStatus snapshots the QoS assignment of every tracked topology.
func (c *Controller) QoSStatus() []TopologyQoS {
	c.mu.Lock()
	out := make([]TopologyQoS, 0, len(c.topos))
	for name, ts := range c.topos {
		if ts.logical == nil {
			continue
		}
		row := TopologyQoS{
			Topology:      name,
			Class:         ts.logical.QoSClass,
			ConfiguredBps: ts.logical.QoSRateBps,
		}
		if row.Class == "" {
			row.Class = topology.QoSBestEffort
		}
		if len(ts.meterRates) > 0 {
			row.HostRates = make(map[string]uint64, len(ts.meterRates))
			for h, r := range ts.meterRates {
				row.HostRates[h] = r
			}
		}
		out = append(out, row)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Topology < out[j].Topology })
	return out
}

// SetMeterRate assigns a topology's meter rate on one host (bytes/sec,
// 0 = admit everything) and reprograms the switch when this controller
// masters it. The assignment is remembered in controller state so
// reconciliation re-sends it after switch reconnects and mastership moves.
func (c *Controller) SetMeterRate(topoName, host string, rateBps uint64) error {
	c.mu.Lock()
	ts := c.topos[topoName]
	if ts == nil {
		c.mu.Unlock()
		return fmt.Errorf("controller: unknown topology %q", topoName)
	}
	meterID := ts.meterID
	if ts.meterRates == nil {
		ts.meterRates = make(map[string]uint64)
	}
	prev, had := ts.meterRates[host]
	ts.meterRates[host] = rateBps
	c.mu.Unlock()
	if meterID == 0 {
		return fmt.Errorf("controller: topology %q has no meter (QoS disabled?)", topoName)
	}
	if had && prev == rateBps {
		return nil // steady state: nothing to send
	}
	if !c.IsMaster(host) {
		return nil // recorded; the host's master programs its own view
	}
	dp := c.datapath(host)
	if dp == nil {
		return fmt.Errorf("controller: no datapath for host %s", host)
	}
	// MeterAdd retunes in place when the meter exists, so the same command
	// covers first assignment and every reassignment after.
	_, err := dp.conn.Send(openflow.MeterMod{
		Command: openflow.MeterAdd, MeterID: meterID, RateBps: rateBps,
	})
	return err
}

// BandwidthConfig tunes the bandwidth-allocator app.
type BandwidthConfig struct {
	// LinkCapacityBps is the egress budget managed per host (bytes/sec).
	LinkCapacityBps uint64
}

const (
	// rateHysteresis is the fractional rate change below which reassignment
	// is suppressed, so steady state sends no MeterMods.
	rateHysteresis = 0.1
	// minShareFrac floors every metered tenant's rate at this fraction of
	// the link capacity.
	minShareFrac = 0.05
)

// BandwidthAllocator is the QoS control plane app: an online feedback loop
// that reads the controller's worker statistics (like the auto-scaler) and
// continuously reassigns per-topology meter rates from observed demand.
// Guaranteed tenants are never policed — their protection
// is the egress queue weight plus the caps this app keeps on everyone
// else; burstable tenants split the spare capacity left after guaranteed
// floors in proportion to demand; best-effort tenants share a quarter of
// the spare so a flooding tenant is firmly rate-capped.
//
// Sharding and failover follow the replicated control plane: each
// topology's owner runs its metric sweep, each switch's master applies the
// rates for its host, and because every input is recomputed from the
// coordinator-backed topology view plus fresh metrics, a controller that
// inherits a switch converges on the next tick with no handoff protocol.
type BandwidthAllocator struct {
	BaseApp

	cfg BandwidthConfig

	mu sync.Mutex
	// prevEmitted remembers the last emitted counter per worker of each
	// topology so demand is a per-tick delta, not a lifetime total.
	prevEmitted map[string]map[topology.WorkerID]uint64
}

// NewBandwidthAllocator builds the app.
func NewBandwidthAllocator(cfg BandwidthConfig) *BandwidthAllocator {
	if cfg.LinkCapacityBps == 0 {
		cfg.LinkCapacityBps = 64 << 20 // 64 MB/s default budget
	}
	return &BandwidthAllocator{
		cfg:         cfg,
		prevEmitted: make(map[string]map[topology.WorkerID]uint64),
	}
}

// Name implements App.
func (b *BandwidthAllocator) Name() string { return "bandwidth-allocator" }

// tenant is one topology's per-tick allocation state on one host.
type tenant struct {
	name   string
	class  string
	conf   uint64 // configured rate
	demand uint64 // emitted delta + backlog, the proportional-share weight
}

// OnTick implements App: ask for fresh metrics, then compute and apply
// per-host rate assignments for mastered switches.
func (b *BandwidthAllocator) OnTick(c *Controller) {
	// Per-host tenant sets, built from every tracked topology. The metric
	// sweep is sharded by topology ownership inside RequestWorkerStats;
	// allocation below is sharded by switch mastership inside SetMeterRate,
	// so overlapping views never fight.
	tenants := make(map[string][]*tenant)
	for _, name := range c.TopologyNames() {
		l, p := c.Topology(name)
		if l == nil || p == nil {
			continue
		}
		c.RequestWorkerStats(name)
		class := l.QoSClass
		if class == "" {
			class = topology.QoSBestEffort
		}
		stats := c.WorkerStats(name)
		b.mu.Lock()
		prev := b.prevEmitted[name]
		if prev == nil {
			prev = make(map[topology.WorkerID]uint64)
			b.prevEmitted[name] = prev
		}
		perHost := make(map[string]*tenant)
		for _, as := range p.Workers {
			tn := perHost[as.Host]
			if tn == nil {
				tn = &tenant{name: name, class: class, conf: l.QoSRateBps}
				perHost[as.Host] = tn
			}
			mr, ok := stats[as.Worker]
			if !ok {
				continue
			}
			delta := mr.Emitted - prev[as.Worker]
			if mr.Emitted < prev[as.Worker] {
				delta = mr.Emitted // worker restarted; counter reset
			}
			prev[as.Worker] = mr.Emitted
			tn.demand += delta + uint64(mr.QueueLen)
		}
		b.mu.Unlock()
		for host, tn := range perHost {
			tenants[host] = append(tenants[host], tn)
		}
	}

	for host, tns := range tenants {
		if !c.IsMaster(host) {
			continue // the host's master runs this host's allocation
		}
		b.allocateHost(c, host, tns)
	}
}

// allocateHost computes and applies one host's rate assignment.
func (b *BandwidthAllocator) allocateHost(c *Controller, host string, tns []*tenant) {
	capacity := b.cfg.LinkCapacityBps
	floor := uint64(float64(capacity) * minShareFrac)

	var reserved uint64
	var burst, best []*tenant
	for _, tn := range tns {
		switch tn.class {
		case topology.QoSGuaranteed:
			if tn.conf < capacity {
				reserved += tn.conf
			} else {
				reserved += capacity
			}
		case topology.QoSBurstable:
			burst = append(burst, tn)
		default:
			best = append(best, tn)
		}
	}
	spare := capacity - reserved
	if spare < capacity/10 {
		spare = capacity / 10
	}

	apply := func(tn *tenant, rate uint64) {
		if rate != 0 && rate < floor {
			rate = floor
		}
		if b.withinHysteresis(c, tn.name, host, rate) {
			return
		}
		_ = c.SetMeterRate(tn.name, host, rate) // recorded either way; reconciliation re-sends it
	}

	// Guaranteed tenants are never policed by their own meter.
	for _, tn := range tns {
		if tn.class == topology.QoSGuaranteed {
			apply(tn, 0)
		}
	}
	// Burstable tenants share the whole spare pool by demand; best-effort
	// tenants share a quarter of it, so a flood is capped well below the
	// point where it could crowd the link.
	shareOut(burst, spare, apply)
	shareOut(best, spare/4, apply)
}

// shareOut splits a pool across tenants in proportion to demand; with no
// demand signal at all, the split is even.
func shareOut(tns []*tenant, pool uint64, apply func(*tenant, uint64)) {
	if len(tns) == 0 {
		return
	}
	var total uint64
	for _, tn := range tns {
		total += tn.demand
	}
	for _, tn := range tns {
		var rate uint64
		if total == 0 {
			rate = pool / uint64(len(tns))
		} else {
			rate = uint64(float64(pool) * float64(tn.demand) / float64(total))
		}
		apply(tn, rate)
	}
}

// withinHysteresis reports whether the new rate is close enough to the
// current assignment that re-sending would only churn the data plane.
func (b *BandwidthAllocator) withinHysteresis(c *Controller, topo, host string, rate uint64) bool {
	c.mu.Lock()
	ts := c.topos[topo]
	var cur uint64
	var had bool
	if ts != nil && ts.meterRates != nil {
		cur, had = ts.meterRates[host]
	}
	c.mu.Unlock()
	if !had {
		return false
	}
	if cur == rate {
		return true
	}
	if cur == 0 || rate == 0 {
		return false // metered ↔ unmetered is always worth sending
	}
	diff := float64(rate) - float64(cur)
	if diff < 0 {
		diff = -diff
	}
	return diff/float64(cur) < rateHysteresis
}
