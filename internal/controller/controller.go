// Package controller implements the Typhoon SDN controller (§3.4): the
// unified management layer that programs the data plane with flow rules
// derived from the coordinator's global state, reconfigures workers through
// control tuples carried in PACKET_OUT messages, and hosts SDN control
// plane applications (§4) that consume cross-layer information.
//
// Following the paper, the controller is stateless with respect to stream
// applications: everything it installs is recomputed from the coordinator.
package controller

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"typhoon/internal/coordinator"
	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/paths"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// ManagerAPI is the slice of streaming-manager functionality exposed to
// control plane applications (the auto-scaler initiates scale-ups, the
// live debugger deploys debug workers).
type ManagerAPI interface {
	// SetParallelism changes a node's parallelism at runtime.
	SetParallelism(topo, node string, parallelism int) error
	// AddDetachedNode adds a node with no edges (e.g. a debug worker)
	// pinned to a host, returning once it is part of the topology.
	AddDetachedNode(topo string, spec topology.NodeSpec, host string) error
	// RemoveNode removes a node added with AddDetachedNode.
	RemoveNode(topo, node string) error
}

// App is an SDN control plane application.
type App interface {
	// Name identifies the app.
	Name() string
	// OnPortStatus observes switch port lifecycle events.
	OnPortStatus(c *Controller, host string, ev openflow.PortStatus)
	// OnPacketIn observes worker-to-controller traffic (decoded control
	// tuples arrive via OnControlTuple instead when parseable).
	OnPacketIn(c *Controller, host string, ev openflow.PacketIn)
	// OnControlTuple observes decoded worker control tuples. METRIC_RESP
	// is already in the host's table (Controller.WorkerStats) by then.
	OnControlTuple(c *Controller, host string, src packet.Addr, t tuple.Tuple)
	// OnTick runs periodically.
	OnTick(c *Controller)
}

// BaseApp provides no-op App methods for embedding.
type BaseApp struct{}

// OnPortStatus implements App.
func (BaseApp) OnPortStatus(*Controller, string, openflow.PortStatus) {}

// OnPacketIn implements App.
func (BaseApp) OnPacketIn(*Controller, string, openflow.PacketIn) {}

// OnControlTuple implements App.
func (BaseApp) OnControlTuple(*Controller, string, packet.Addr, tuple.Tuple) {}

// OnTick implements App.
func (BaseApp) OnTick(*Controller) {}

// Options tunes the controller.
type Options struct {
	// Addr is the listen address; empty selects 127.0.0.1:0.
	Addr string
	// ID names this controller instance within the control plane (a lone
	// controller is a set of one). Required: it owns the instance's
	// registration, the mastership leases it wins and its pause markers.
	ID string
	// LeaseTTL bounds the registration heartbeat and switch-mastership
	// leases; a crashed controller's switches fail over after at most one
	// TTL plus a campaign tick. Zero selects 5 × TickInterval.
	LeaseTTL time.Duration
	// TickInterval drives periodic reconciliation and app ticks.
	TickInterval time.Duration
	// StatefulFlushDelay separates SIGNAL flushes from the routing
	// updates that follow during stable stateful reconfiguration.
	StatefulFlushDelay time.Duration
	// EnableQoS compiles multi-tenant QoS into the rule set: data rules
	// carry the topology's meter and a set_queue action selecting its rate
	// class's egress queue, and per-topology meters are programmed on every
	// sync. Off by default so QoS-unaware clusters get byte-identical rules.
	EnableQoS bool
}

// Datapath is one connected switch.
type Datapath struct {
	host  string
	dpid  uint64
	conn  *openflow.Conn
	ports []openflow.PortInfo

	mu      sync.Mutex
	pending map[uint32]chan openflow.StatsReply
}

// Host returns the datapath's host name.
func (d *Datapath) Host() string { return d.host }

type topoState struct {
	logical  *topology.Logical
	physical *topology.Physical
	// installed maps rule keys to the installed FlowMod per host.
	installed map[ruleKey]openflow.FlowMod
	// groups maps a source worker to its select-group ID.
	groups map[topology.WorkerID]uint32
	// ctlGen is the last generation control tuples were issued for.
	ctlGen int64
	// ready marks that rules for the current generation are installed.
	ready bool
	// mirrors maps tapped source workers to the debug port receiving
	// copies of their egress frames (live debugger, §4). Applied on every
	// rule compilation so reconciliation preserves taps.
	mirrors map[topology.WorkerID]uint32
	// lbWeights holds per-destination select-group weights set by the
	// SDN load balancer; like mirrors, they are controller state so
	// reconciliation re-applies rather than clobbers them.
	lbWeights map[topology.WorkerID]uint16
	// meterID is the topology's data-plane meter (one ID, programmed on
	// every host carrying its workers); zero until QoS allocates one.
	meterID uint32
	// meterRates holds the bandwidth allocator's current per-host rate
	// assignment (bytes/sec, 0 = admit everything). Like lbWeights it is
	// controller state: reconciliation re-programs it after reconnects
	// and mastership moves instead of falling back to the configured rate.
	meterRates map[string]uint64
	// stats is the topology's slice of the worker-statistics table;
	// statsTick is tickNo+1 at its last METRIC_REQ sweep and statsAsked
	// the time, both zero when never swept (workerstats.go).
	stats      map[topology.WorkerID]WorkerStat
	statsTick  uint64
	statsAsked time.Time
}

// SetGroupWeights sets select-group bucket weights for destination workers
// of SDN-balanced edges (the load balancer's knob). Weights persist across
// reconciliation; a zero/absent weight means 1.
func (c *Controller) SetGroupWeights(topoName string, weights map[topology.WorkerID]uint16) error {
	c.mu.Lock()
	ts := c.topos[topoName]
	if ts == nil {
		c.mu.Unlock()
		return fmt.Errorf("controller: unknown topology %q", topoName)
	}
	if ts.lbWeights == nil {
		ts.lbWeights = make(map[topology.WorkerID]uint16)
	}
	for w, wt := range weights {
		ts.lbWeights[w] = wt
	}
	c.mu.Unlock()
	c.SyncTopology(topoName)
	return nil
}

// AddMirror registers a packet-mirroring tap: every egress rule of the
// tapped worker gains an extra output toward debugPort on the next sync.
func (c *Controller) AddMirror(topoName string, src topology.WorkerID, debugPort uint32) error {
	c.mu.Lock()
	ts := c.topos[topoName]
	if ts == nil {
		c.mu.Unlock()
		return fmt.Errorf("controller: unknown topology %q", topoName)
	}
	if ts.mirrors == nil {
		ts.mirrors = make(map[topology.WorkerID]uint32)
	}
	ts.mirrors[src] = debugPort
	c.mu.Unlock()
	c.SyncTopology(topoName)
	return nil
}

// RemoveMirror removes a tap installed with AddMirror.
func (c *Controller) RemoveMirror(topoName string, src topology.WorkerID) {
	c.mu.Lock()
	if ts := c.topos[topoName]; ts != nil {
		delete(ts.mirrors, src)
	}
	c.mu.Unlock()
	c.SyncTopology(topoName)
}

// Controller is the Typhoon SDN controller.
type Controller struct {
	kv   coordinator.KV
	opts Options
	ln   net.Listener

	// syncMu serializes SyncTopology runs (watch and tick goroutines).
	syncMu sync.Mutex
	// campaignMu serializes election rounds (see campaign).
	campaignMu sync.Mutex

	mu     sync.Mutex
	dps    map[string]*Datapath
	conns  map[net.Conn]struct{}
	topos  map[string]*topoState
	apps   []App
	mgr    ManagerAPI
	nextGp uint32
	nextMt uint32
	// masters is this controller's view of per-switch mastership leases,
	// refreshed by campaign(); roleSent tracks the last role asserted per
	// datapath so ROLE_REQUEST goes out only on change.
	masters  map[string]coordinator.Lease
	roleSent map[string]roleState

	// outage simulates a controller failure (chaos): while set, switch
	// events are discarded, reconciliation is suspended and PACKET_OUT
	// fails — the data plane keeps forwarding on installed rules, which
	// is the SDN degradation mode the paper's design implies.
	outage atomic.Bool
	// pktOutDelay delays every PACKET_OUT (chaos control-latency fault).
	pktOutDelay atomic.Int64
	// statsSweeps and statsResps count METRIC_REQ sweeps sent and
	// METRIC_RESPs recorded (typhoon_collector_*).
	statsSweeps, statsResps atomic.Uint64
	// tickNo counts ticks begun; a topology is swept at most once per
	// value (workerstats.go).
	tickNo atomic.Uint64

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// New builds a controller listening for switch connections.
func New(kv coordinator.KV, opts Options) (*Controller, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("controller: Options.ID required")
	}
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.TickInterval <= 0 {
		opts.TickInterval = 200 * time.Millisecond
	}
	if opts.StatefulFlushDelay <= 0 {
		opts.StatefulFlushDelay = 50 * time.Millisecond
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 5 * opts.TickInterval
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, err
	}
	return &Controller{
		kv:       kv,
		opts:     opts,
		ln:       ln,
		dps:      make(map[string]*Datapath),
		conns:    make(map[net.Conn]struct{}),
		topos:    make(map[string]*topoState),
		masters:  make(map[string]coordinator.Lease),
		roleSent: make(map[string]roleState),
		stopCh:   make(chan struct{}),
		nextGp:   1,
		nextMt:   1,
	}, nil
}

// Addr returns the controller's listen address for switches.
func (c *Controller) Addr() string { return c.ln.Addr().String() }

// Manager returns the attached streaming-manager API (may be nil).
func (c *Controller) Manager() ManagerAPI {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mgr
}

// SetManager attaches the streaming-manager API for apps.
func (c *Controller) SetManager(m ManagerAPI) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mgr = m
}

// AddApp deploys a control plane application.
func (c *Controller) AddApp(app App) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.apps = append(c.apps, app)
}

func (c *Controller) appsSnapshot() []App {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]App(nil), c.apps...)
}

// Start campaigns for switch mastership, then launches the accept loop, the
// coordinator watches (topologies and lease movement) and the ticker.
func (c *Controller) Start() error {
	events, cancel, err := c.kv.Watch(paths.Topologies)
	if err != nil {
		return err
	}
	cpEvents, cpCancel, err := c.kv.Watch(paths.ControlPlane)
	if err != nil {
		cancel()
		return err
	}
	c.campaign()
	c.wg.Add(4)
	go c.controlPlaneLoop(cpEvents, cpCancel)
	go c.acceptLoop()
	go c.watchLoop(events, cancel)
	go c.tickLoop()
	return nil
}

// Stop halts the controller and drops switch connections.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	_ = c.ln.Close()
	c.mu.Lock()
	for nc := range c.conns {
		_ = nc.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Stopped reports whether Stop has been called — the controller is dead
// and can take no further action on the cluster.
func (c *Controller) Stopped() bool {
	select {
	case <-c.stopCh:
		return true
	default:
		return false
	}
}

// BeginOutage starts a simulated controller outage (chaos). Switch events
// are discarded, reconciliation halts, and PACKET_OUT fails until
// EndOutage; installed flow rules keep the data plane forwarding.
func (c *Controller) BeginOutage() {
	c.outage.Store(true)
}

// EndOutage ends a simulated outage and immediately reconciles every
// topology, reinstalling whatever drifted while the controller was "down".
func (c *Controller) EndOutage() {
	if c.outage.CompareAndSwap(true, false) {
		c.syncAll()
	}
}

// Outage reports whether a simulated controller outage is active.
func (c *Controller) Outage() bool { return c.outage.Load() }

// SetPacketOutDelay makes every subsequent PACKET_OUT wait d before being
// sent (chaos control-plane latency fault). Zero restores normal behaviour.
func (c *Controller) SetPacketOutDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.pktOutDelay.Store(int64(d))
}

// Datapaths lists connected switch hosts.
func (c *Controller) Datapaths() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.dps))
	for h := range c.dps {
		out = append(out, h)
	}
	return out
}

func (c *Controller) datapath(host string) *Datapath {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dps[host]
}

// Topology returns the controller's cached view of a topology (fault
// detector and tests).
func (c *Controller) Topology(name string) (*topology.Logical, *topology.Physical) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.topos[name]
	if ts == nil {
		return nil, nil
	}
	return ts.logical, ts.physical
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

func (c *Controller) acceptLoop() {
	defer c.wg.Done()
	for {
		nc, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		select {
		case <-c.stopCh:
			c.mu.Unlock()
			_ = nc.Close()
			return
		default:
		}
		c.conns[nc] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.serveDatapath(nc)
	}
}

func (c *Controller) serveDatapath(nc net.Conn) {
	defer c.wg.Done()
	conn := openflow.NewConn(nc)
	defer func() {
		c.mu.Lock()
		delete(c.conns, nc)
		c.mu.Unlock()
		_ = conn.Close()
	}()
	if _, err := conn.Send(openflow.Hello{}); err != nil {
		return
	}
	xid, err := conn.Send(openflow.FeaturesRequest{})
	if err != nil {
		return
	}
	_ = xid
	var dp *Datapath
	// This loop is the arena's one owner; control tuples decoded from
	// PacketIns take their storage with them (see tuple.Arena).
	var arena tuple.Arena
	for {
		rxid, msg, err := conn.Receive()
		if err != nil {
			if dp != nil {
				c.mu.Lock()
				if c.dps[dp.host] == dp {
					delete(c.dps, dp.host)
				}
				c.mu.Unlock()
			}
			return
		}
		switch m := msg.(type) {
		case openflow.Hello:
		case openflow.EchoRequest:
			_ = conn.SendXID(rxid, openflow.EchoReply{Payload: m.Payload})
		case openflow.FeaturesReply:
			dp = &Datapath{
				host:    m.Host,
				dpid:    m.DatapathID,
				conn:    conn,
				ports:   m.Ports,
				pending: make(map[uint32]chan openflow.StatsReply),
			}
			c.mu.Lock()
			c.dps[m.Host] = dp
			// A new connection holds no role, whatever the last one was sent.
			delete(c.roleSent, m.Host)
			c.mu.Unlock()
			// Campaign now rather than on the next tick: the switch is a known
			// host at last, so its vacant lease is claimed and asserted at once.
			c.campaign()
			// A new datapath may unblock pending topology syncs. Not on this
			// goroutine: a sync waits for replies only this loop can read.
			c.wg.Add(1)
			go func() { defer c.wg.Done(); c.syncAll() }()
		case openflow.StatsReply:
			if dp != nil {
				dp.mu.Lock()
				ch := dp.pending[rxid]
				delete(dp.pending, rxid)
				dp.mu.Unlock()
				if ch != nil {
					ch <- m
				}
			}
		case openflow.PacketIn:
			if c.outage.Load() {
				continue // a dead controller loses the event
			}
			c.handlePacketIn(dp, m, &arena)
		case openflow.PortStatus:
			if dp != nil && !c.outage.Load() {
				for _, app := range c.appsSnapshot() {
					app.OnPortStatus(c, dp.host, m)
				}
			}
		case openflow.FlowRemoved:
			// A rule left the switch (idle timeout or chaos wipe): forget
			// it from the reconciliation cache so the next sync reinstalls
			// it instead of assuming it is still present.
			if dp != nil {
				c.invalidateRule(dp.host, m)
			}
		case openflow.Error:
			// Switch rejected something; reconciliation retries on tick.
		}
	}
}

func (c *Controller) handlePacketIn(dp *Datapath, m openflow.PacketIn, arena *tuple.Arena) {
	if dp == nil {
		return
	}
	host := dp.host
	apps := c.appsSnapshot()
	// Try to decode a control tuple from the frame.
	if f, err := packet.Decode(m.Data); err == nil && len(f.Tuples) > 0 {
		for _, raw := range f.Tuples {
			if tp, _, err := tuple.DecodeInto(raw, arena); err == nil && tp.Stream.IsControl() {
				c.recordWorkerStats(host, f.Src, tp)
				for _, app := range apps {
					app.OnControlTuple(c, host, f.Src, tp)
				}
			}
		}
	}
	for _, app := range apps {
		app.OnPacketIn(c, host, m)
	}
}

func (c *Controller) watchLoop(events <-chan coordinator.Event, cancel func()) {
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
			if name := paths.TopologyName(ev.Path); name != "" {
				c.SyncTopology(name)
			}
		}
	}
}

func (c *Controller) tickLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
			if c.outage.Load() {
				continue
			}
			c.tick()
		}
	}
}

// tick is one round of periodic work: election, reconciliation, the
// worker-statistics sweep of topologies nobody asked about for
// statsSweepInterval, then the apps.
func (c *Controller) tick() {
	c.tickNo.Add(1)
	c.campaign()
	c.syncAll()
	c.sweepStaleWorkerStats()
	for _, app := range c.appsSnapshot() {
		app.OnTick(c)
	}
}

func (c *Controller) syncAll() {
	names, err := c.kv.Children(paths.Topologies)
	if err != nil {
		return
	}
	for _, n := range names {
		c.SyncTopology(n)
	}
}

// SendControlTuple delivers a control tuple to a worker through the data
// plane (PACKET_OUT → switch → worker port), per §3.3.2.
func (c *Controller) SendControlTuple(topoName string, id topology.WorkerID, ct tuple.Tuple) error {
	if d := time.Duration(c.pktOutDelay.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-c.stopCh:
			return fmt.Errorf("controller: stopped")
		}
	}
	if c.outage.Load() {
		return fmt.Errorf("controller: outage in progress")
	}
	// Snapshot the topology views under the lock: SyncTopology swaps
	// ts.logical/ts.physical concurrently.
	c.mu.Lock()
	ts := c.topos[topoName]
	var l *topology.Logical
	var p *topology.Physical
	if ts != nil {
		l, p = ts.logical, ts.physical
	}
	c.mu.Unlock()
	if l == nil || p == nil {
		return fmt.Errorf("controller: unknown topology %q", topoName)
	}
	as := p.Worker(id)
	if as == nil {
		return fmt.Errorf("controller: unknown worker %d", id)
	}
	if as.Port == 0 {
		return fmt.Errorf("controller: worker %d has no port yet", id)
	}
	dp := c.datapath(as.Host)
	if dp == nil {
		return fmt.Errorf("controller: no datapath for host %s", as.Host)
	}
	dst := packet.WorkerAddr(l.App, uint32(id))
	frame := packet.EncodeTuples(dst, packet.ControllerAddr, [][]byte{tuple.Encode(ct)})
	_, err := dp.conn.Send(openflow.PacketOut{
		InPort:  openflow.PortController,
		Actions: []openflow.Action{openflow.Output(as.Port)},
		Data:    frame,
	})
	return err
}

// PortStats polls one switch's port counters (the cross-layer network
// statistics of §4).
func (c *Controller) PortStats(host string, timeout time.Duration) ([]openflow.PortStats, error) {
	reply, err := c.stats(host, openflow.StatsRequest{Kind: openflow.StatsPort, Port: openflow.PortAny}, timeout)
	if err != nil {
		return nil, err
	}
	return reply.Ports, nil
}

// FlowStats polls one switch's flow counters.
func (c *Controller) FlowStats(host string, timeout time.Duration) ([]openflow.FlowStats, error) {
	reply, err := c.stats(host, openflow.StatsRequest{Kind: openflow.StatsFlow}, timeout)
	if err != nil {
		return nil, err
	}
	return reply.Flows, nil
}

func (c *Controller) stats(host string, req openflow.StatsRequest, timeout time.Duration) (openflow.StatsReply, error) {
	dp := c.datapath(host)
	if dp == nil {
		return openflow.StatsReply{}, fmt.Errorf("controller: no datapath for host %s", host)
	}
	ch := make(chan openflow.StatsReply, 1)
	xid := dp.conn.XID()
	dp.mu.Lock()
	dp.pending[xid] = ch
	dp.mu.Unlock()
	if err := dp.conn.SendXID(xid, req); err != nil {
		dp.mu.Lock()
		delete(dp.pending, xid)
		dp.mu.Unlock()
		return openflow.StatsReply{}, err
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	select {
	case r := <-ch:
		return r, nil
	case <-time.After(timeout):
		dp.mu.Lock()
		delete(dp.pending, xid)
		dp.mu.Unlock()
		return openflow.StatsReply{}, fmt.Errorf("controller: stats timeout for %s", host)
	case <-c.stopCh:
		return openflow.StatsReply{}, fmt.Errorf("controller: stopped")
	}
}
