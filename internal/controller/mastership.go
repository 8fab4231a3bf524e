package controller

import (
	"encoding/json"
	"hash/fnv"
	"sort"
	"time"

	"typhoon/internal/coordinator"
	"typhoon/internal/openflow"
	"typhoon/internal/paths"
	"typhoon/internal/topology"
)

// Replicated control plane (distributed controllers).
//
// N ≥ 1 controller instances, each named by Options.ID, run concurrently
// against the same coordinator; a lone controller is a set of one and runs
// the same machine. Each switch has exactly one master at a time,
// elected through a lease at paths.SwitchMaster(host); the remaining
// controllers are slaves that stay connected (hot standby) but receive no
// asynchronous switch events. Sharding is by switch: a controller installs
// rules only on the switches it masters, and the master of a topology's
// first host (its "home" switch) additionally owns the topology's control
// tuples and its app work, so exactly one controller drives each topology.
//
// Election is rendezvous-hashed for spread and sticky for stability: the
// preferred controller of a host claims a vacant or expired lease, the
// current holder renews until it dies, and a non-preferred controller takes
// an expired lease over only after an extra TTL of grace (covering the case
// where the preferred controller died too). Epochs from the lease fence
// role claims at the switch, so a paused ex-master cannot reassert itself.

// registration is the value stored at paths.ControllerReg(id): a heartbeat
// that marks the controller live and advertises its listen address.
type registration struct {
	Addr           string `json:"addr"`
	RenewedAtNanos int64  `json:"renewedAtNanos"`
	TTLNanos       int64  `json:"ttlNanos"`
}

func (r registration) expired(now time.Time) bool {
	return now.UnixNano()-r.RenewedAtNanos > r.TTLNanos
}

// roleState remembers the last role asserted toward a datapath so campaigns
// re-send only on change (mastership gained/lost or epoch advanced).
type roleState struct {
	master bool
	epoch  uint64
}

// ID returns the controller's instance ID.
func (c *Controller) ID() string { return c.opts.ID }

// campaign runs one election round: refresh our registration heartbeat,
// compute the live controller set, then acquire/renew/concede the
// mastership lease of every known switch host and assert the resulting
// roles toward connected datapaths. Rounds start from the tick, from
// controlPlaneLoop and from every datapath connect; campaignMu serializes
// them, so an older round cannot adopt its view over a newer one's.
func (c *Controller) campaign() {
	c.campaignMu.Lock()
	defer c.campaignMu.Unlock()
	if c.outage.Load() {
		return
	}
	now := time.Now()
	ttl := c.opts.LeaseTTL
	reg := registration{Addr: c.Addr(), RenewedAtNanos: now.UnixNano(), TTLNanos: int64(ttl)}
	b, _ := json.Marshal(reg)
	_, _ = c.kv.Put(paths.ControllerReg(c.opts.ID), b)

	live := c.liveControllers(now)
	hosts := map[string]bool{}
	if kids, err := c.kv.Children(paths.Agents); err == nil {
		for _, h := range kids {
			hosts[h] = true
		}
	}
	c.mu.Lock()
	for h := range c.dps {
		hosts[h] = true
	}
	c.mu.Unlock()

	masters := make(map[string]coordinator.Lease, len(hosts))
	for host := range hosts {
		path := paths.SwitchMaster(host)
		cur, err := coordinator.ReadLease(c.kv, path)
		preferred := rendezvousOwner(host, live) == c.opts.ID
		claim := false
		switch {
		case err != nil:
			// Vacant (or corrupt) lease: the preferred controller claims it.
			claim = preferred
		case cur.Owner == c.opts.ID:
			// Sticky: keep renewing what we hold even if no longer
			// preferred; rebalancing only happens across failures.
			claim = true
		case cur.Expired(now):
			// The holder died. The preferred controller takes over at once;
			// anyone else waits one extra TTL in case the preferred
			// controller is gone too.
			claim = preferred || now.UnixNano()-cur.RenewedAtNanos > 2*cur.TTLNanos
		}
		if claim {
			if l, _, err := coordinator.AcquireLease(c.kv, path, c.opts.ID, ttl, now); err == nil {
				masters[host] = l
				continue
			}
		}
		if err == nil {
			masters[host] = cur
		}
	}
	c.adoptMasters(masters)
}

// adoptMasters sends ROLE_REQUEST to every connected datapath whose role
// changed, then installs the campaign's view of mastership. In that order:
// a sync programs only the hosts this view says we master, so a switch
// hears that we are its master before it hears any rule from us.
func (c *Controller) adoptMasters(masters map[string]coordinator.Lease) {
	type assertion struct {
		dp     *Datapath
		master bool
		epoch  uint64
	}
	var out []assertion
	c.mu.Lock()
	for host, dp := range c.dps {
		l, ok := masters[host]
		if !ok {
			continue
		}
		want := roleState{master: l.Owner == c.opts.ID, epoch: l.Epoch}
		prev, had := c.roleSent[host]
		if had && prev == want {
			continue
		}
		c.roleSent[host] = want
		if !want.master && (!had || !prev.master) {
			continue // never were master here; nothing to release
		}
		out = append(out, assertion{dp: dp, master: want.master, epoch: want.epoch})
	}
	c.mu.Unlock()
	for _, a := range out {
		_, _ = a.dp.conn.Send(openflow.RoleRequest{Master: a.master, Epoch: a.epoch})
	}
	c.mu.Lock()
	c.masters = masters
	c.mu.Unlock()
}

// liveControllers returns the sorted IDs of controllers with unexpired
// registrations, always including this one.
func (c *Controller) liveControllers(now time.Time) []string {
	live := []string{c.opts.ID}
	ids, err := c.kv.Children(paths.Controllers)
	if err != nil {
		return live
	}
	for _, id := range ids {
		if id == c.opts.ID {
			continue
		}
		raw, _, err := c.kv.Get(paths.ControllerReg(id))
		if err != nil {
			continue
		}
		var r registration
		if json.Unmarshal(raw, &r) != nil || r.expired(now) {
			continue
		}
		live = append(live, id)
	}
	sort.Strings(live)
	return live
}

// ControllerLive reports whether a controller's registration heartbeat is
// current (the updater's stale-pause reaper uses this to detect a rescale
// whose driver died).
func (c *Controller) ControllerLive(id string) bool {
	raw, _, err := c.kv.Get(paths.ControllerReg(id))
	if err != nil {
		return false
	}
	var r registration
	if err := json.Unmarshal(raw, &r); err != nil {
		return false
	}
	return !r.expired(time.Now())
}

// rendezvousOwner picks the preferred master of a host among the live
// controllers by highest rendezvous (FNV-1a) score, so switches spread
// evenly and each host's preference is stable under membership churn.
func rendezvousOwner(host string, ids []string) string {
	var best string
	var bestScore uint64
	for _, id := range ids {
		h := fnv.New64a()
		_, _ = h.Write([]byte(host))
		_, _ = h.Write([]byte{'/'})
		_, _ = h.Write([]byte(id))
		s := h.Sum64()
		if best == "" || s > bestScore || (s == bestScore && id < best) {
			best, bestScore = id, s
		}
	}
	return best
}

// IsMaster reports whether this controller masters the given switch host.
func (c *Controller) IsMaster(host string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.masters[host]
	return ok && l.Owner == c.opts.ID
}

// MasterOf returns the current master and lease epoch for a switch host as
// this controller sees it.
func (c *Controller) MasterOf(host string) (owner string, epoch uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.masters[host]
	return l.Owner, l.Epoch, ok
}

// masteredHosts snapshots the hosts this controller currently masters.
func (c *Controller) masteredHosts() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(c.masters))
	for h, l := range c.masters {
		if l.Owner == c.opts.ID {
			out[h] = true
		}
	}
	return out
}

// ownsPhysical reports whether this controller owns a topology's control
// work: the owner is the master of the topology's home switch — the first
// host in sorted order — so ownership is a pure function of mastership.
func (c *Controller) ownsPhysical(p *topology.Physical) bool {
	hosts := p.Hosts()
	if len(hosts) == 0 {
		return true
	}
	return c.IsMaster(hosts[0])
}

// OwnsTopology reports whether this controller runs the app work (metrics
// polling, auto-scaling, rescales) for the named topology. Control plane
// applications use it to shard themselves.
func (c *Controller) OwnsTopology(name string) bool {
	c.mu.Lock()
	ts := c.topos[name]
	var p *topology.Physical
	if ts != nil {
		p = ts.physical
	}
	c.mu.Unlock()
	if p == nil {
		return false
	}
	return c.ownsPhysical(p)
}

// controlPlaneLoop reacts to mastership movement: when a lease changes
// hands (or disappears) the controller re-campaigns and reconciles at once
// instead of waiting for the next tick, which keeps failover latency at
// lease-expiry granularity rather than tick granularity.
func (c *Controller) controlPlaneLoop(events <-chan coordinator.Event, cancel func()) {
	defer c.wg.Done()
	defer cancel()
	for {
		select {
		case <-c.stopCh:
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if c.outage.Load() {
				continue
			}
			if c.masterMoved(ev) {
				c.campaign()
				c.syncAll()
			}
		}
	}
}

// masterMoved filters control-plane events down to those that can change
// mastership: lease deletions and owner/epoch transitions. Renewal writes
// (same owner, same epoch) arrive on every campaign of every controller
// and must not retrigger campaigns, or the watch would feed itself.
func (c *Controller) masterMoved(ev coordinator.Event) bool {
	host, ok := paths.ParseSwitchMaster(ev.Path)
	if !ok {
		return false
	}
	if ev.Type == coordinator.EventDeleted {
		return true
	}
	l, err := coordinator.DecodeLease(ev.Data)
	if err != nil {
		return true
	}
	c.mu.Lock()
	cur, have := c.masters[host]
	c.mu.Unlock()
	return !have || cur.Owner != l.Owner || cur.Epoch != l.Epoch
}
