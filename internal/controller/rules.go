package controller

import (
	"reflect"
	"strconv"
	"strings"
	"time"

	"typhoon/internal/control"
	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/paths"
	"typhoon/internal/topology"
)

// Rule priorities, mirroring Table 3's rule classes.
const (
	prioControl uint16 = 200 // worker → controller
	prioData    uint16 = 100 // unicast worker → worker
	prioBcast   uint16 = 90  // one-to-many / SDN-balanced ingress
)

type ruleKey struct {
	host     string
	match    string
	priority uint16
}

// SyncTopology reconciles the data plane with the coordinator state for one
// topology: missing rules are installed, stale rules deleted, and — when
// the topology generation advanced — the stable-update control tuples of
// §3.5 are injected (SIGNAL flushes for stateful nodes, ROUTING updates,
// ACTIVATE for sources).
func (c *Controller) SyncTopology(name string) {
	if c.outage.Load() {
		return // a dead controller reconciles nothing
	}
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	lraw, _, lerr := c.kv.Get(paths.Logical(name))
	praw, _, perr := c.kv.Get(paths.Physical(name))
	if lerr != nil || perr != nil {
		c.teardownTopology(name)
		return
	}
	l, err1 := topology.DecodeLogical(lraw)
	p, err2 := topology.DecodePhysical(praw)
	if err1 != nil || err2 != nil {
		return
	}
	// The manager writes the logical topology before the physical one; a
	// sync that catches the gap would act on a stale assignment. Wait for
	// the matching physical generation.
	if p.Generation != l.Generation {
		return
	}
	// Deployment readiness: every worker must be attached to a port and
	// every host's datapath connected.
	for _, as := range p.Workers {
		if as.Port == 0 {
			return
		}
	}
	tun := make(map[string]uint32)
	for _, host := range p.Hosts() {
		dp := c.datapath(host)
		if dp == nil {
			return
		}
		tp, ok := tunnelPort(dp)
		if !ok && len(p.Hosts()) > 1 {
			return
		}
		tun[host] = tp
	}

	c.mu.Lock()
	ts := c.topos[name]
	if ts == nil {
		ts = &topoState{
			installed: make(map[ruleKey]openflow.FlowMod),
			groups:    make(map[topology.WorkerID]uint32),
			ctlGen:    -1,
		}
		c.topos[name] = ts
	}
	prevPhysical := ts.physical
	prevLogical := ts.logical
	prevInstalled := ts.installed
	ctlGen := ts.ctlGen
	// Allocate stable group IDs for SDN-balanced source workers.
	groupOf := func(w topology.WorkerID) uint32 {
		if id, ok := ts.groups[w]; ok {
			return id
		}
		id := c.nextGp
		c.nextGp++
		ts.groups[w] = id
		return id
	}
	weightsSnap := make(map[topology.WorkerID]uint16, len(ts.lbWeights))
	for w, wt := range ts.lbWeights {
		weightsSnap[w] = wt
	}
	// QoS: every topology owns one meter ID; its data rules reference it
	// and classify onto the egress queue of the topology's rate class.
	var meterID uint32
	if c.opts.EnableQoS {
		if ts.meterID == 0 {
			ts.meterID = c.nextMt
			c.nextMt++
		}
		meterID = ts.meterID
	}
	ratesSnap := make(map[string]uint64, len(ts.meterRates))
	for h, r := range ts.meterRates {
		ratesSnap[h] = r
	}
	c.mu.Unlock()
	weightOf := func(w topology.WorkerID) uint16 {
		if wt, ok := weightsSnap[w]; ok && wt > 0 {
			return wt
		}
		return 1
	}

	desired, groups := compileRules(l, p, tun, groupOf, weightOf, meterID)

	// Apply live-debugger taps: mirror the tapped workers' egress rules
	// to their debug ports. Doing it here keeps taps stable across
	// reconciliation syncs.
	c.mu.Lock()
	mirrors := make(map[topology.WorkerID]uint32, len(ts.mirrors))
	for w, port := range ts.mirrors {
		mirrors[w] = port
	}
	c.mu.Unlock()
	for src, debugPort := range mirrors {
		as := p.Worker(src)
		if as == nil {
			continue
		}
		srcAddr := packet.WorkerAddr(l.App, uint32(src))
		for key, fm := range desired {
			if key.host != as.Host || fm.Priority == prioControl {
				continue
			}
			bySrc := fm.Match.Fields.Has(openflow.FieldDlSrc) && fm.Match.DlSrc == srcAddr
			byPort := fm.Match.Fields.Has(openflow.FieldInPort) && fm.Match.InPort == as.Port
			if !bySrc && !byPort {
				continue
			}
			fm.Actions = append(append([]openflow.Action(nil), fm.Actions...), openflow.Output(debugPort))
			desired[key] = fm
		}
	}

	// Shard by switch mastership. This controller programs only the switches
	// it masters; the rest of the rule set is some other master's job, and
	// stale cache entries for hosts we lost are forgotten without sends (the
	// new master already owns them).
	mine := c.masteredHosts()
	for key := range desired {
		if !mine[key.host] {
			delete(desired, key)
		}
	}
	kept := make([]hostGroupMod, 0, len(groups))
	for _, g := range groups {
		if mine[g.host] {
			kept = append(kept, g)
		}
	}
	groups = kept

	// Program meters before rules. A rule referencing a not-yet-programmed
	// meter passes unmetered, so ordering is a courtesy, not a correctness
	// requirement; identical re-adds are switch-side no-ops and rate changes
	// retune in place, so resending every sync keeps reconciliation simple
	// and makes mastership failover self-healing.
	if meterID != 0 {
		for _, host := range p.Hosts() {
			if !mine[host] {
				continue
			}
			rate, ok := ratesSnap[host]
			if !ok {
				rate = l.QoSRateBps // configured rate until the allocator speaks
			}
			if dp := c.datapath(host); dp != nil {
				_, _ = dp.conn.Send(openflow.MeterMod{
					Command: openflow.MeterAdd, MeterID: meterID, RateBps: rate,
				})
			}
		}
	}

	// Program groups first so rules never reference a missing group.
	for _, g := range groups {
		if dp := c.datapath(g.host); dp != nil {
			_, _ = dp.conn.Send(g.gm)
		}
	}
	adds := 0
	programmed := make(map[string]bool)
	for key, fm := range desired {
		if prev, ok := prevInstalled[key]; ok && reflect.DeepEqual(prev, fm) {
			continue
		}
		if dp := c.datapath(key.host); dp != nil {
			_, _ = dp.conn.Send(fm)
			adds++
			programmed[key.host] = true
		}
	}
	// Barrier: FlowMods are fire-and-forget, yet sources are activated "once
	// flow rules are in place" (§3.2 step v). A switch serves its connection in
	// order, so a reply to a request sent behind them means they are applied.
	for host := range programmed {
		_, _ = c.stats(host, openflow.StatsRequest{Kind: openflow.StatsPort}, 0)
	}
	for key, fm := range prevInstalled {
		if _, ok := desired[key]; ok {
			continue
		}
		if !mine[key.host] {
			continue // mastership moved away; the new master owns this rule
		}
		if dp := c.datapath(key.host); dp != nil {
			// §3.5: rules of removed workers are not deleted abruptly —
			// in-flight tuples may still match them while predecessors'
			// routing updates propagate. Re-install the rule with an idle
			// timeout so it expires once traffic ceases.
			expiring := fm
			expiring.Command = openflow.FlowAdd
			expiring.IdleTimeoutMs = staleRuleIdleMs
			_, _ = dp.conn.Send(expiring)
		}
	}

	c.mu.Lock()
	ts.logical = l
	ts.physical = p
	ts.installed = desired
	ts.ready = true
	c.mu.Unlock()

	// Announce per-host readiness: each switch's master marks the hosts it
	// just programmed so the topology owner can tell when the whole data
	// plane carries this generation before issuing control tuples.
	gen := strconv.FormatInt(l.Generation, 10)
	for _, host := range p.Hosts() {
		if mine[host] {
			c.putMarker(paths.NetReadyHost(name, host), gen)
		}
	}

	// Control tuples are the topology owner's job: exactly one controller
	// (the master of the topology's home switch) drives §3.5, so workers
	// never see duplicate SIGNAL/ROUTING/ACTIVATE streams.
	owns := c.ownsPhysical(p)

	// A managed rescale (updater app) pauses the topology: while the
	// marker is up, the updater owns the §3.5 choreography — state moves
	// by snapshot/restore rather than SIGNAL flush, and sources stay
	// deactivated until migration finishes.
	paused := c.topologyPaused(name)

	if ctlGen < l.Generation {
		if !owns {
			return
		}
		if !c.hostsReady(name, p, l.Generation, mine) {
			return // other masters have not installed this generation yet
		}
		// Stable update (§3.5): flush stateful nodes whose instance sets
		// changed, then refresh routing state everywhere, then activate.
		if prevPhysical != nil && prevLogical != nil && !paused {
			flushed := false
			for _, node := range l.Nodes {
				if !node.Stateful {
					continue
				}
				if instancesEqual(prevPhysical.Instances(node.Name), p.Instances(node.Name)) {
					continue
				}
				for _, as := range prevPhysical.Instances(node.Name) {
					if p.Worker(as.Worker) != nil {
						_ = c.SendControlTuple(name, as.Worker, control.Encode(control.KindSignal, nil))
						flushed = true
					}
				}
			}
			if flushed {
				time.Sleep(c.opts.StatefulFlushDelay)
			}
		}
		for _, as := range p.Workers {
			routes := topology.RoutesFor(l, p, as.Node)
			_ = c.SendControlTuple(name, as.Worker,
				control.Encode(control.KindRouting, control.Routing{Routes: routes}))
		}
		if !paused {
			c.activateSources(name, l, p)
		}
		c.mu.Lock()
		ts.ctlGen = l.Generation
		c.mu.Unlock()
		_, _ = c.kv.Put(paths.NetReady(name), []byte(gen))
	} else if owns {
		// Port churn without a generation change (e.g. a crashed worker
		// locally restarted on a fresh port): re-arm routing and re-activate
		// sources that restarted throttled. Routing goes to every worker of
		// the topology, not just the churned ones — the fault detector may
		// have steered predecessors away from a worker that is now back, and
		// only a full refresh re-includes it in their route tables. Churn is
		// detected from the physical assignment rather than local rule adds
		// because in a sharded control plane the churned host may belong to
		// a different master.
		churned := false
		if prevPhysical != nil {
			for _, as := range p.Workers {
				prev := prevPhysical.Worker(as.Worker)
				if prev == nil || prev.Port != as.Port || prev.Host != as.Host {
					churned = true
					break
				}
			}
		}
		if churned {
			for _, as := range p.Workers {
				routes := topology.RoutesFor(l, p, as.Node)
				_ = c.SendControlTuple(name, as.Worker,
					control.Encode(control.KindRouting, control.Routing{Routes: routes}))
			}
		}
		if (adds > 0 || churned) && !paused {
			c.activateSources(name, l, p)
		}
	}
}

// putMarker writes a marker node only when its value changes, so
// steady-state reconciliation generates no coordinator watch traffic.
func (c *Controller) putMarker(path, val string) {
	if raw, _, err := c.kv.Get(path); err == nil && string(raw) == val {
		return
	}
	_, _ = c.kv.Put(path, []byte(val))
}

// hostsReady reports whether every host of the topology carries the rules
// of generation gen, per the per-host markers each switch's master writes.
// Our own hosts are implicitly ready — this sync just installed them.
func (c *Controller) hostsReady(name string, p *topology.Physical, gen int64, mine map[string]bool) bool {
	for _, h := range p.Hosts() {
		if mine[h] {
			continue
		}
		raw, _, err := c.kv.Get(paths.NetReadyHost(name, h))
		if err != nil {
			return false
		}
		g, err := strconv.ParseInt(string(raw), 10, 64)
		if err != nil || g < gen {
			return false
		}
	}
	return true
}

// topologyPaused reports whether a managed rescale holds the topology's
// pause marker.
func (c *Controller) topologyPaused(name string) bool {
	_, _, err := c.kv.Get(paths.Paused(name))
	return err == nil
}

// invalidateRule drops a removed rule from every topology's reconciliation
// cache so the next SyncTopology reinstalls it (FlowRemoved handling: idle
// expiry or a chaos flow-table wipe).
func (c *Controller) invalidateRule(host string, fr openflow.FlowRemoved) {
	key := ruleKey{host: host, match: fr.Match.String(), priority: fr.Priority}
	c.mu.Lock()
	for _, ts := range c.topos {
		if _, ok := ts.installed[key]; ok {
			delete(ts.installed, key)
		}
	}
	c.mu.Unlock()
}

func (c *Controller) activateSources(name string, l *topology.Logical, p *topology.Physical) {
	for _, node := range l.Nodes {
		if !node.Source {
			continue
		}
		for _, as := range p.Instances(node.Name) {
			_ = c.SendControlTuple(name, as.Worker, control.Encode(control.KindActivate, nil))
		}
	}
}

func (c *Controller) teardownTopology(name string) {
	c.mu.Lock()
	ts := c.topos[name]
	delete(c.topos, name)
	c.mu.Unlock()
	if ts == nil {
		return
	}
	hosts := make(map[string]bool)
	for key, fm := range ts.installed {
		hosts[key.host] = true
		if dp := c.datapath(key.host); dp != nil {
			_, _ = dp.conn.Send(openflow.FlowMod{
				Command:  openflow.FlowDeleteStrict,
				Priority: fm.Priority,
				Match:    fm.Match,
			})
		}
	}
	if ts.meterID != 0 {
		for host := range hosts {
			if dp := c.datapath(host); dp != nil {
				_, _ = dp.conn.Send(openflow.MeterMod{
					Command: openflow.MeterDelete, MeterID: ts.meterID,
				})
			}
		}
	}
}

func instancesEqual(a, b []topology.Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Worker != b[i].Worker {
			return false
		}
	}
	return true
}

// staleRuleIdleMs is the idle timeout for rules being phased out; live
// rules carry none.
const staleRuleIdleMs = 2000

// tunnelPort finds the datapath's tunnel port by its conventional name.
func tunnelPort(dp *Datapath) (uint32, bool) {
	for _, p := range dp.ports {
		if strings.HasPrefix(p.Name, "tun") {
			return p.No, true
		}
	}
	return 0, false
}

// compileRules translates a scheduled topology into the Table 3 rule set.
// With a non-zero meterID, data rules (not control punts) are metered and
// classified onto the egress queue of the topology's rate class, which is
// how tenant traffic picks up its QoS treatment at every switch and tunnel.
func compileRules(l *topology.Logical, p *topology.Physical, tun map[string]uint32,
	groupOf func(topology.WorkerID) uint32, weightOf func(topology.WorkerID) uint16,
	meterID uint32) (map[ruleKey]openflow.FlowMod, []hostGroupMod) {

	rules := make(map[ruleKey]openflow.FlowMod)
	var groups []hostGroupMod
	queue := topology.QoSClassID(l.QoSClass)
	addr := func(id topology.WorkerID) packet.Addr {
		return packet.WorkerAddr(l.App, uint32(id))
	}
	add := func(host string, fm openflow.FlowMod) {
		if meterID != 0 && fm.Priority != prioControl {
			fm.Meter = meterID
			fm.Actions = append([]openflow.Action{openflow.SetQueue(queue)}, fm.Actions...)
		}
		rules[ruleKey{host: host, match: fm.Match.String(), priority: fm.Priority}] = fm
	}

	// Worker → controller rules (METRIC_RESP and other PacketIn traffic).
	for _, as := range p.Workers {
		add(as.Host, openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Priority: prioControl,
			Match: openflow.Match{
				Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
				InPort: as.Port, DlDst: packet.ControllerAddr, EtherType: packet.EtherType,
			},
			Actions: []openflow.Action{openflow.Output(openflow.PortController)},
		})
	}

	// Broadcast targets per source worker, merged across All edges.
	bcastTargets := make(map[topology.WorkerID][]topology.Assignment)
	// SDN-balanced targets per source worker.
	lbTargets := make(map[topology.WorkerID][]topology.Assignment)

	for _, e := range l.Edges {
		srcs := p.Instances(e.From)
		dsts := p.Instances(e.To)
		switch e.Policy {
		case topology.All:
			for _, s := range srcs {
				bcastTargets[s.Worker] = append(bcastTargets[s.Worker], dsts...)
			}
		case topology.SDNBalanced:
			for _, s := range srcs {
				lbTargets[s.Worker] = append(lbTargets[s.Worker], dsts...)
			}
			// Remote receivers still need unicast landing rules after the
			// group rewrites the destination.
			for _, s := range srcs {
				for _, d := range dsts {
					if d.Host != s.Host {
						addRemoteReceiver(add, tun, addr, s, d)
					}
				}
			}
		default:
			// Unicast fabric: Shuffle, Fields, Global, Direct.
			for _, s := range srcs {
				for _, d := range dsts {
					if s.Host == d.Host {
						add(s.Host, openflow.FlowMod{
							Command:  openflow.FlowAdd,
							Priority: prioData,
							Match:    unicastMatch(s.Port, addr(s.Worker), addr(d.Worker)),
							Actions:  []openflow.Action{openflow.Output(d.Port)},
						})
					} else {
						add(s.Host, openflow.FlowMod{
							Command:  openflow.FlowAdd,
							Priority: prioData,
							Match:    unicastMatch(s.Port, addr(s.Worker), addr(d.Worker)),
							Actions: []openflow.Action{
								openflow.SetTunnelDst(d.Host),
								openflow.Output(tun[s.Host]),
							},
						})
						addRemoteReceiver(add, tun, addr, s, d)
					}
				}
			}
		}
	}

	// One-to-many transfer: a single ingress rule per source worker whose
	// action list covers local ports and each remote host's tunnel once.
	for _, e := range l.Edges {
		if e.Policy != topology.All {
			continue
		}
		for _, s := range p.Instances(e.From) {
			dsts := bcastTargets[s.Worker]
			if dsts == nil {
				continue
			}
			var acts []openflow.Action
			remoteHosts := map[string]bool{}
			remoteDsts := map[string][]topology.Assignment{}
			for _, d := range dsts {
				if d.Host == s.Host {
					acts = append(acts, openflow.Output(d.Port))
				} else {
					remoteHosts[d.Host] = true
					remoteDsts[d.Host] = append(remoteDsts[d.Host], d)
				}
			}
			for h := range remoteHosts {
				acts = append(acts, openflow.SetTunnelDst(h), openflow.Output(tun[s.Host]))
			}
			add(s.Host, openflow.FlowMod{
				Command:  openflow.FlowAdd,
				Priority: prioBcast,
				Match: openflow.Match{
					Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
					InPort: s.Port, DlDst: packet.Broadcast, EtherType: packet.EtherType,
				},
				Actions: acts,
			})
			// Remote landing rules replicate to that host's targets.
			for h, ds := range remoteDsts {
				var outs []openflow.Action
				for _, d := range ds {
					outs = append(outs, openflow.Output(d.Port))
				}
				add(h, openflow.FlowMod{
					Command:  openflow.FlowAdd,
					Priority: prioBcast,
					Match: openflow.Match{
						Fields: openflow.FieldInPort | openflow.FieldDlSrc | openflow.FieldDlDst | openflow.FieldEtherType,
						InPort: tun[h], DlSrc: addr(s.Worker), DlDst: packet.Broadcast, EtherType: packet.EtherType,
					},
					Actions: outs,
				})
			}
			bcastTargets[s.Worker] = nil
		}
	}

	// SDN load balancing: a select group per source worker rewrites the
	// broadcast destination in weighted round robin (§4).
	for w, dsts := range lbTargets {
		if len(dsts) == 0 {
			continue
		}
		s := p.Worker(w)
		if s == nil {
			continue
		}
		gid := groupOf(w)
		var buckets []openflow.Bucket
		for _, d := range dsts {
			var acts []openflow.Action
			acts = append(acts, openflow.SetDlDst(addr(d.Worker)))
			if d.Host == s.Host {
				acts = append(acts, openflow.Output(d.Port))
			} else {
				acts = append(acts, openflow.SetTunnelDst(d.Host), openflow.Output(tun[s.Host]))
			}
			buckets = append(buckets, openflow.Bucket{Weight: weightOf(d.Worker), Actions: acts})
		}
		groups = append(groups, hostGroupMod{
			host: s.Host,
			gm: openflow.GroupMod{
				Command: openflow.GroupAdd,
				GroupID: gid,
				Type:    openflow.GroupSelect,
				Buckets: buckets,
			},
		})
		add(s.Host, openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Priority: prioBcast,
			Match: openflow.Match{
				Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
				InPort: s.Port, DlDst: packet.Broadcast, EtherType: packet.EtherType,
			},
			Actions: []openflow.Action{openflow.ToGroup(gid)},
		})
	}

	return rules, groups
}

type hostGroupMod struct {
	host string
	gm   openflow.GroupMod
}

func unicastMatch(inPort uint32, src, dst packet.Addr) openflow.Match {
	return openflow.Match{
		Fields: openflow.FieldInPort | openflow.FieldDlSrc | openflow.FieldDlDst | openflow.FieldEtherType,
		InPort: inPort, DlSrc: src, DlDst: dst, EtherType: packet.EtherType,
	}
}

func addRemoteReceiver(add func(string, openflow.FlowMod), tun map[string]uint32,
	addr func(topology.WorkerID) packet.Addr, s, d topology.Assignment) {
	add(d.Host, openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: prioData,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlSrc | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: tun[d.Host], DlSrc: addr(s.Worker), DlDst: addr(d.Worker), EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.Output(d.Port)},
	})
}
