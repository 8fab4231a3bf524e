// Package switchfabric implements the host-based software SDN switch of the
// Typhoon data plane: an OpenFlow-programmable forwarding element whose
// ports are DPDK-style ring buffers connecting local workers, tunnels and
// the controller.
//
// The switch implements exactly the rule vocabulary of Table 3: matching on
// in_port / dl_src / dl_dst / eth_type, output to one or many ports (the
// serialization-free broadcast of Fig 9), set_tun_dst + tunnel-port output
// for remote transfer, controller output for PACKET_IN, and select groups
// with destination rewrite for SDN-level load balancing (§4).
//
// # Fast path
//
// The per-frame pipeline is engineered to take zero locks and make zero
// allocations in steady state:
//
//   - Each port pump owns one exact-match microflow cache (microflow.go) in
//     front of the flow table, invalidated by a generation counter that
//     every control mutation bumps. A miss falls through to the
//     classifier (flowtable.go), one rule list in priority order whose
//     first covering rule wins, and inserts its answer. Steady traffic is
//     one microflow per (upstream worker, destination), so the list is
//     scanned on a flow's first frame and after rule churn, not per frame.
//   - Ports, groups and the controller sink are read from an immutable
//     dataView snapshot swapped atomically on control-plane changes.
//   - Frames are processed in batches: the view, the generation and a
//     coarse wall-clock stamp (internal/clock) are loaded once per batch,
//     and counters are accumulated locally and flushed once per batch.
//   - Frame buffers follow the unique-ownership protocol of internal/packet:
//     the first enqueue of a frame hands the original slice to exactly one
//     egress ring; every additional delivery (broadcast, multi-output,
//     mirror) gets its own pooled copy, and controller punts always copy.
//     The receiving transport may therefore recycle every frame it reads.
package switchfabric

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"typhoon/internal/clock"
	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/ring"
)

// ControllerSink receives asynchronous switch-to-controller events. The
// in-process agent forwards them over the OpenFlow connection.
type ControllerSink interface {
	PacketIn(openflow.PacketIn)
	PortStatus(openflow.PortStatus)
	FlowRemoved(openflow.FlowRemoved)
}

// Options configures a Switch. The zero value selects every default.
type Options struct {
	// RingCapacity sizes each port's RX and TX rings (frames). Zero
	// selects the ring package's default capacity.
	RingCapacity int
	// IdleScanInterval is how often idle timeouts are evaluated. Zero
	// selects 50 ms.
	IdleScanInterval time.Duration
	// EgressQueues, when non-empty, replaces every port's single FIFO TX
	// ring with per-class queues drained by deficit round-robin (weighted
	// fair queueing). Rules pick a class with the set_queue action;
	// unclassified traffic uses class 0. Applies to worker and tunnel ports
	// alike, so tunnels inherit WFQ through the same egress path.
	EgressQueues []QueueClass
}

// pumpBatchSize is how many frames a port pump drains per wakeup; trace
// checks, clock reads and counter flushes amortize over the batch.
const pumpBatchSize = 64

// Switch is a host-local software SDN switch.
type Switch struct {
	name string
	dpid uint64
	opts Options

	mu       sync.Mutex
	ports    map[uint32]*Port
	nextPort uint32
	groups   map[uint32]*group
	meters   map[uint32]*meter

	// sinks are the attached controller channels. PACKET_IN broadcasts to
	// every sink (each replicated controller filters by its own shard);
	// PORT_STATUS and FLOW_REMOVED go to the master only, because exactly
	// one controller may react to switch events (fault steering, rule
	// reinstallation) without duplicating work.
	sinks       []ControllerSink
	master      ControllerSink
	masterEpoch uint64
	// pendingEv buffers master-only events raised while the master role is
	// vacant (a failover window); they flush to the next master so no
	// fault or rule-expiry notification is lost across a controller crash.
	pendingEv []masterEvent

	// ctlSinks is the lock-free snapshot of sinks the punt path reads.
	// Kept outside dataView so controller churn (attach/detach during
	// failover) does not bump the flow-cache generation: the cached
	// forwarding path stays hot while the control plane re-homes.
	ctlSinks atomic.Pointer[[]ControllerSink]

	// view is the immutable snapshot of ports/groups the data path reads;
	// rebuilt under mu on every control-plane change.
	view atomic.Pointer[dataView]
	// gen invalidates microflow caches; bumped inside the mutating critical
	// section of every flow-table, group-table and port change.
	gen atomic.Uint64

	flows flowTable

	stopOnce sync.Once
	stopped  chan struct{}
	wg       sync.WaitGroup

	rxDropsNoMatch atomic.Uint64
	malformed      atomic.Uint64
	forwarded      atomic.Uint64
	replicated     atomic.Uint64
	mfHits         atomic.Uint64
	mfMisses       atomic.Uint64
	meterDrops     atomic.Uint64
}

// dataView is the lock-free snapshot the per-frame path reads. Its maps are
// never mutated after publication (meter objects are internally atomic, so
// rate retunes never require a new view).
type dataView struct {
	ports  map[uint32]*Port
	groups map[uint32]*group
	meters map[uint32]*meter
}

// masterEvent is one buffered master-only event (exactly one field set).
type masterEvent struct {
	ps *openflow.PortStatus
	fr *openflow.FlowRemoved
}

// pendingEventCap bounds the vacant-master event buffer (drop-oldest).
const pendingEventCap = 256

// Counters is a switch-level snapshot of frame accounting, the per-switch
// rows of the cluster observability layer.
type Counters struct {
	// RxFrames counts frames accepted from attached devices (all ports).
	RxFrames uint64
	// TxFrames counts frames delivered toward attached devices.
	TxFrames uint64
	// Forwarded counts frame deliveries made by the pipeline (equals
	// TxFrames plus controller punts).
	Forwarded uint64
	// Replicated counts extra copies beyond the first delivery of a frame
	// (GroupAll broadcast, multi-output rules, mirror taps).
	Replicated uint64
	// Dropped counts frames lost in this switch: malformed frames, table
	// misses, full egress rings, and full ingress rings.
	Dropped uint64
	// NoMatch counts received frames that matched no rule (also included
	// in Dropped).
	NoMatch uint64
	// Malformed counts received frames discarded before lookup because
	// their header failed to parse (also included in Dropped).
	Malformed uint64
	// MicroflowHits and MicroflowMisses count exact-match cache outcomes
	// across all port pumps.
	MicroflowHits   uint64
	MicroflowMisses uint64
	// Upcalls counts slow-path classifier lookups. Every microflow miss is
	// exactly one, so it is filled from MicroflowMisses.
	Upcalls uint64
	// MeterDrops counts frames dropped by token-bucket meter policing
	// (also included in Dropped).
	MeterDrops uint64
}

type group struct {
	typ     openflow.GroupType
	buckets []openflow.Bucket
	next    atomic.Uint64 // weighted round-robin cursor
	weights []uint32      // cumulative weights for bucket selection
	total   uint32
}

// Port is one switch port. The device side (worker I/O layer, tunnel pump,
// controller agent) writes frames in with WriteFrame and reads frames out
// with ReadBatch; the switch side runs a pump goroutine per port.
type Port struct {
	no     uint32
	name   string
	addr   packet.Addr
	tunnel bool

	// rx carries device -> switch. Exactly one of tx and qd carries switch
	// -> device: qd, the per-class DRR queues, when the switch runs egress
	// queues, tx otherwise (fixed at port construction).
	rx *ring.Ring
	tx *ring.Ring
	qd *qdisc
	// ctl is a worker port's control lane, the one way in for a frame the
	// controller sends (a PACKET_OUT). It is read ahead of the data queue and
	// has the data ring's capacity, so a segmented control tuple that fits
	// one fits the other. Tunnel ports have no lane.
	ctl *ring.Ring
	// egress lists the rings toward the device (tx or qd's classes, then
	// ctl); deliver offers a frame to one of them, so their sums count it once.
	egress []*ring.Ring

	rxPackets atomic.Uint64
	rxBytes   atomic.Uint64
}

// No returns the port number.
func (p *Port) No() uint32 { return p.no }

// Name returns the port name.
func (p *Port) Name() string { return p.name }

// Addr returns the worker address bound to the port (zero for tunnels).
func (p *Port) Addr() packet.Addr { return p.addr }

// IsTunnel reports whether the port is a tunnel port.
func (p *Port) IsTunnel() bool { return p.tunnel }

// WriteFrame submits a frame from the attached device into the switch.
// It reports false when the ingress ring is full (frame dropped).
func (p *Port) WriteFrame(frame []byte) bool { return p.rx.TryEnqueue(frame) }

// WriteFrameWait is the backpressure budget every producer into a switch
// ingress ring (worker transports, the tunnel ingress) passes to
// WriteFrameTimeout before abandoning a frame — the loss mode §8 discusses.
const WriteFrameWait = 10 * time.Millisecond

// WriteFrameTimeout submits a frame, blocking up to wait for ring space.
// It returns ring.ErrFull past the deadline (one drop counted) or
// ring.ErrClosed after the port is removed.
func (p *Port) WriteFrameTimeout(frame []byte, wait time.Duration) error {
	return p.rx.EnqueueTimeout(frame, wait)
}

// ReadBatch reads frames the switch delivered to this port, waiting up to
// wait for the first frame. Frames in the control lane come first, in a
// batch of their own. With egress queues enabled frames arrive in
// deficit-round-robin order across classes. It returns ring.ErrClosed after
// the port is removed and drained.
func (p *Port) ReadBatch(dst [][]byte, max int, wait time.Duration) ([][]byte, error) {
	if ctl := p.ReadControl(dst, max); len(ctl) > len(dst) {
		return ctl, nil
	}
	if p.qd != nil {
		return p.qd.readBatch(dst, max, wait)
	}
	return p.tx.DequeueBatch(dst, max, wait)
}

// ReadControl reads up to max frames from the control lane alone, without
// waiting; it returns dst unchanged when the lane is empty.
func (p *Port) ReadControl(dst [][]byte, max int) [][]byte {
	if p.ctl == nil || p.ctl.Len() == 0 {
		return dst
	}
	dst, _ = p.ctl.DequeueBatch(dst, max, 0) // a read that does not wait cannot fail
	return dst
}

// Closed reports whether the port has been removed from the switch.
func (p *Port) Closed() bool { return p.rx.Closed() }

// QueueLen reports frames queued toward the attached device, the
// switch-side component of a worker's queue-status metric.
func (p *Port) QueueLen() int {
	n := 0
	for _, r := range p.egress {
		n += r.Len()
	}
	return n
}

// QueueStats reports per-class egress queue counters, or nil when the port
// runs a single FIFO (egress queues disabled).
func (p *Port) QueueStats() []QueueStats {
	if p.qd == nil {
		return nil
	}
	return p.qd.queueStats()
}

// txStats sums the counters of the port's egress rings.
func (p *Port) txStats() (sum ring.Stats) {
	for _, r := range p.egress {
		st := r.Stats()
		sum.Enqueued += st.Enqueued
		sum.Dropped += st.Dropped
		sum.Bytes += st.Bytes
	}
	return sum
}

// closeRings closes every ring attached to the port.
func (p *Port) closeRings() {
	p.rx.Close()
	for _, r := range p.egress {
		r.Close()
	}
	if p.qd != nil {
		p.qd.wake()
	}
}

// New builds a switch named after its host with the given datapath ID. The
// last Options given wins; none selects every default.
func New(name string, dpid uint64, options ...Options) *Switch {
	var opts Options
	if len(options) > 0 {
		opts = options[len(options)-1]
	}
	if opts.IdleScanInterval <= 0 {
		opts.IdleScanInterval = 50 * time.Millisecond
	}
	s := &Switch{
		name:    name,
		dpid:    dpid,
		opts:    opts,
		ports:   make(map[uint32]*Port),
		groups:  make(map[uint32]*group),
		meters:  make(map[uint32]*meter),
		stopped: make(chan struct{}),
	}
	s.flows.gen = &s.gen
	s.ctlSinks.Store(&[]ControllerSink{})
	s.rebuildView()
	return s
}

// rebuildView publishes a fresh immutable data-path snapshot and bumps the
// microflow generation. Callers hold s.mu (except New, pre-publication).
func (s *Switch) rebuildView() {
	v := &dataView{
		ports:  make(map[uint32]*Port, len(s.ports)),
		groups: make(map[uint32]*group, len(s.groups)),
		meters: make(map[uint32]*meter, len(s.meters)),
	}
	for no, p := range s.ports {
		v.ports[no] = p
	}
	for id, g := range s.groups {
		v.groups[id] = g
	}
	for id, m := range s.meters {
		v.meters[id] = m
	}
	s.view.Store(v)
	s.gen.Add(1)
}

// Name returns the switch (host) name.
func (s *Switch) Name() string { return s.name }

// DatapathID returns the datapath identifier.
func (s *Switch) DatapathID() uint64 { return s.dpid }

// AttachController adds a controller event sink in the slave role: it
// receives PACKET_IN broadcasts but no master-only events until it claims
// mastership.
func (s *Switch) AttachController(sink ControllerSink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, existing := range s.sinks {
		if existing == sink {
			return
		}
	}
	s.sinks = append(s.sinks, sink)
	s.publishSinksLocked()
}

// DetachController removes a controller event sink (its connection died).
// If it held the master role the role becomes vacant and master-only
// events buffer until the next claim.
func (s *Switch) DetachController(sink ControllerSink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, existing := range s.sinks {
		if existing == sink {
			s.sinks = append(s.sinks[:i], s.sinks[i+1:]...)
			break
		}
	}
	if s.master == sink {
		s.master = nil
	}
	s.publishSinksLocked()
}

// ClaimMaster grants the master role to an attached sink, fenced by the
// mastership-lease epoch: a claim older than the highest accepted epoch is
// refused, so a partitioned ex-master can never displace its successor.
// Events buffered while the role was vacant flush to the new master.
func (s *Switch) ClaimMaster(sink ControllerSink, epoch uint64) bool {
	s.mu.Lock()
	if epoch < s.masterEpoch {
		s.mu.Unlock()
		return false
	}
	s.masterEpoch = epoch
	s.master = sink
	pend := s.takePendingLocked()
	s.mu.Unlock()
	flushPending(sink, pend)
	return true
}

// ReleaseMaster cedes the master role if the sink still holds it at the
// given epoch (a newer claim wins over a stale release).
func (s *Switch) ReleaseMaster(sink ControllerSink, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.master == sink && epoch >= s.masterEpoch {
		s.master = nil
	}
}

// publishSinksLocked snapshots the sink registry for the punt path.
func (s *Switch) publishSinksLocked() {
	cp := make([]ControllerSink, len(s.sinks))
	copy(cp, s.sinks)
	s.ctlSinks.Store(&cp)
}

func (s *Switch) takePendingLocked() []masterEvent {
	pend := s.pendingEv
	s.pendingEv = nil
	return pend
}

func flushPending(sink ControllerSink, pend []masterEvent) {
	for _, ev := range pend {
		switch {
		case ev.ps != nil:
			sink.PortStatus(*ev.ps)
		case ev.fr != nil:
			sink.FlowRemoved(*ev.fr)
		}
	}
}

// emitToMaster routes one master-only event: delivered to the master when
// one is attached, buffered during a vacancy (only if any controller is
// attached at all — a bare switch with no control plane drops events, as
// before), capped drop-oldest.
func (s *Switch) emitToMaster(ev masterEvent) {
	s.mu.Lock()
	m := s.master
	if m == nil {
		if len(s.sinks) > 0 {
			if len(s.pendingEv) >= pendingEventCap {
				n := copy(s.pendingEv, s.pendingEv[1:])
				s.pendingEv = s.pendingEv[:n]
			}
			s.pendingEv = append(s.pendingEv, ev)
		}
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	switch {
	case ev.ps != nil:
		m.PortStatus(*ev.ps)
	case ev.fr != nil:
		m.FlowRemoved(*ev.fr)
	}
}

// Start launches the idle-timeout scanner. Port pumps start as ports are
// added.
func (s *Switch) Start() {
	s.wg.Add(1)
	go s.idleScanner()
}

// Stop halts the switch: all ports are closed and pumps drained.
func (s *Switch) Stop() {
	s.stopOnce.Do(func() { close(s.stopped) })
	s.mu.Lock()
	for _, p := range s.ports {
		p.closeRings()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// AddPort creates a worker port bound to addr and starts its pump.
func (s *Switch) AddPort(name string, addr packet.Addr) (*Port, error) {
	return s.addPort(name, addr, false)
}

// AddTunnelPort creates the host's tunnel port.
func (s *Switch) AddTunnelPort(name string) (*Port, error) {
	return s.addPort(name, packet.Addr{}, true)
}

func (s *Switch) addPort(name string, addr packet.Addr, tunnel bool) (*Port, error) {
	s.mu.Lock()
	select {
	case <-s.stopped:
		s.mu.Unlock()
		return nil, fmt.Errorf("switchfabric: switch %s stopped", s.name)
	default:
	}
	s.nextPort++
	p := &Port{
		no:     s.nextPort,
		name:   name,
		addr:   addr,
		tunnel: tunnel,
		rx:     ring.New(s.opts.RingCapacity),
	}
	if len(s.opts.EgressQueues) > 0 {
		p.qd = newQdisc(s.opts.EgressQueues, s.opts.RingCapacity)
		for i := range p.qd.classes {
			p.egress = append(p.egress, p.qd.classes[i].ring)
		}
	} else {
		p.tx = ring.New(s.opts.RingCapacity)
		p.egress = append(p.egress, p.tx)
	}
	if !tunnel {
		p.ctl = ring.New(s.opts.RingCapacity)
		p.egress = append(p.egress, p.ctl)
	}
	s.ports[p.no] = p
	s.rebuildView()
	s.mu.Unlock()

	s.wg.Add(1)
	go s.pump(p)

	ev := openflow.PortStatus{
		Reason: openflow.PortAdded,
		Port:   openflow.PortInfo{No: p.no, Name: p.name},
		Addr:   p.addr,
	}
	s.emitToMaster(masterEvent{ps: &ev})
	return p, nil
}

// RemovePort removes a port, closing its rings and emitting a PortStatus
// event. A worker crash manifests as exactly this event (Fig 10's
// SwitchPortChanged notification).
func (s *Switch) RemovePort(no uint32) error {
	s.mu.Lock()
	p, ok := s.ports[no]
	if ok {
		delete(s.ports, no)
		s.rebuildView()
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("switchfabric: no port %d", no)
	}
	p.closeRings()
	ev := openflow.PortStatus{
		Reason: openflow.PortDeleted,
		Port:   openflow.PortInfo{No: p.no, Name: p.name},
		Addr:   p.addr,
	}
	s.emitToMaster(masterEvent{ps: &ev})
	return nil
}

// Port returns the port with the given number, or nil.
func (s *Switch) Port(no uint32) *Port {
	return s.view.Load().ports[no]
}

// Ports lists current ports for FEATURES replies.
func (s *Switch) Ports() []openflow.PortInfo {
	v := s.view.Load()
	out := make([]openflow.PortInfo, 0, len(v.ports))
	for _, p := range v.ports {
		out = append(out, openflow.PortInfo{No: p.no, Name: p.name})
	}
	return out
}

// ApplyFlowMod programs the flow table.
func (s *Switch) ApplyFlowMod(fm openflow.FlowMod) error {
	switch fm.Command {
	case openflow.FlowAdd:
		s.flows.add(fm)
	case openflow.FlowModify:
		s.flows.modify(fm)
	case openflow.FlowDelete, openflow.FlowDeleteStrict:
		removed := s.flows.remove(fm.Match, fm.Priority, fm.Command == openflow.FlowDeleteStrict)
		s.notifyRemoved(removed, openflow.RemovedDelete)
	default:
		return fmt.Errorf("switchfabric: bad flow command %d", fm.Command)
	}
	return nil
}

// ApplyGroupMod programs the group table.
func (s *Switch) ApplyGroupMod(gm openflow.GroupMod) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch gm.Command {
	case openflow.GroupAdd, openflow.GroupModify:
		if old := s.groups[gm.GroupID]; old != nil && groupUnchanged(old, gm) {
			// Identical re-add (controller reconciliation re-sends every
			// group each sync): keep the installed group and the cache
			// generation so cached paths through the group stay valid.
			return nil
		}
		g := &group{typ: gm.Type, buckets: gm.Buckets}
		for _, b := range gm.Buckets {
			w := uint32(b.Weight)
			if w == 0 {
				w = 1
			}
			g.total += w
			g.weights = append(g.weights, g.total)
		}
		s.groups[gm.GroupID] = g
	case openflow.GroupDelete:
		if _, ok := s.groups[gm.GroupID]; !ok {
			return nil
		}
		delete(s.groups, gm.GroupID)
	default:
		return fmt.Errorf("switchfabric: bad group command %d", gm.Command)
	}
	s.rebuildView()
	return nil
}

// groupUnchanged reports whether an installed group is semantically
// identical to an incoming add/modify.
func groupUnchanged(g *group, gm openflow.GroupMod) bool {
	if g.typ != gm.Type || len(g.buckets) != len(gm.Buckets) {
		return false
	}
	for i, b := range gm.Buckets {
		if g.buckets[i].Weight != b.Weight || !slices.Equal(g.buckets[i].Actions, b.Actions) {
			return false
		}
	}
	return true
}

// ApplyMeterMod programs the meter table. Adding a meter that already
// exists, or modifying one, retunes rate and burst in place: the data-path
// view and the flow-cache generation are untouched, so the bandwidth
// allocator can reassign rates continuously without perturbing cached
// forwarding. Only genuinely new or deleted meters rebuild the view.
func (s *Switch) ApplyMeterMod(mm openflow.MeterMod) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch mm.Command {
	case openflow.MeterAdd, openflow.MeterModify:
		if m := s.meters[mm.MeterID]; m != nil {
			burst := mm.BurstBytes
			if burst == 0 {
				burst = defaultBurst(mm.RateBps)
			}
			if m.rateBps.Load() != mm.RateBps || m.burst.Load() != burst {
				m.configure(mm.RateBps, mm.BurstBytes)
			}
			return nil
		}
		s.meters[mm.MeterID] = newMeter(mm.RateBps, mm.BurstBytes, clock.CoarseUnixNano())
	case openflow.MeterDelete:
		if _, ok := s.meters[mm.MeterID]; !ok {
			return nil
		}
		delete(s.meters, mm.MeterID)
	default:
		return fmt.Errorf("switchfabric: bad meter command %d", mm.Command)
	}
	s.rebuildView()
	return nil
}

// MeterStatsSnapshot returns per-meter configuration and drop counters.
func (s *Switch) MeterStatsSnapshot() []MeterInfo {
	v := s.view.Load()
	out := make([]MeterInfo, 0, len(v.meters))
	for id, m := range v.meters {
		out = append(out, MeterInfo{
			ID:         id,
			RateBps:    m.rateBps.Load(),
			BurstBytes: m.burst.Load(),
			Drops:      m.drops.Load(),
		})
	}
	return out
}

// MeterDrops reports frames dropped by meter policing across all meters.
func (s *Switch) MeterDrops() uint64 { return s.meterDrops.Load() }

// Inject processes a controller PACKET_OUT: the data frame is run through
// the explicit action list with in_port as given. A frame the controller
// sent (source ControllerAddr) takes the control lane of its worker ports.
func (s *Switch) Inject(po openflow.PacketOut) error {
	if len(po.Data) == 0 {
		return fmt.Errorf("switchfabric: empty packet-out")
	}
	// The controller owns po.Data and may retain it; marking the frame
	// already-consumed forces every delivery onto the copy path so the
	// original never enters a ring whose reader recycles buffers.
	consumed := true
	_, src, _ := packet.PeekAddrs(po.Data)
	v := s.view.Load()
	now := clock.CoarseUnixNano()
	if n := s.execute(v, po.InPort, po.Data, po.Actions, 0, 0, src.IsController(), now, &consumed); n > 0 {
		s.forwarded.Add(uint64(n))
		if n > 1 {
			s.replicated.Add(uint64(n - 1))
		}
	}
	return nil
}

// PortStatsSnapshot returns per-port counters.
func (s *Switch) PortStatsSnapshot() []openflow.PortStats {
	v := s.view.Load()
	out := make([]openflow.PortStats, 0, len(v.ports))
	for _, p := range v.ports {
		tx := p.txStats()
		out = append(out, openflow.PortStats{
			PortNo:    p.no,
			RxPackets: p.rxPackets.Load(),
			RxBytes:   p.rxBytes.Load(),
			TxPackets: tx.Enqueued,
			TxBytes:   tx.Bytes,
			RxDropped: p.rx.Stats().Dropped,
			TxDropped: tx.Dropped,
		})
	}
	return out
}

// FlowStatsSnapshot returns per-rule counters.
func (s *Switch) FlowStatsSnapshot() []openflow.FlowStats { return s.flows.snapshot() }

// WipeFlows destroys the entire flow table — the chaos subsystem's
// switch-state fault. Unlike ordinary deletion, every wiped rule is
// reported to the controller regardless of its FlagSendFlowRem flag, so
// reconciliation knows its installed state is gone and reinstalls.
func (s *Switch) WipeFlows() int {
	removed := s.flows.wipe()
	s.notify(removed, openflow.RemovedDelete, true)
	return len(removed)
}

// RuleCount reports the number of installed rules.
func (s *Switch) RuleCount() int { return s.flows.len() }

// CountersSnapshot aggregates the switch's frame accounting across ports.
func (s *Switch) CountersSnapshot() Counters {
	var c Counters
	c.Forwarded = s.forwarded.Load()
	c.Replicated = s.replicated.Load()
	c.Malformed = s.malformed.Load()
	c.MicroflowHits = s.mfHits.Load()
	c.MicroflowMisses = s.mfMisses.Load()
	c.Upcalls = c.MicroflowMisses
	c.MeterDrops = s.meterDrops.Load()
	c.NoMatch = s.rxDropsNoMatch.Load()
	c.Dropped = c.NoMatch + c.Malformed + c.MeterDrops
	v := s.view.Load()
	for _, p := range v.ports {
		tx := p.txStats()
		c.RxFrames += p.rxPackets.Load()
		c.TxFrames += tx.Enqueued
		c.Dropped += p.rx.Stats().Dropped + tx.Dropped
	}
	return c
}

// pump moves frames from a port's RX ring through the pipeline.
func (s *Switch) pump(p *Port) {
	defer s.wg.Done()
	mc := newMicroCache()
	batch := make([][]byte, 0, pumpBatchSize)
	for {
		batch = batch[:0]
		var err error
		batch, err = p.rx.DequeueBatch(batch, pumpBatchSize, time.Second)
		if err != nil {
			return
		}
		s.processBatch(p, batch, mc)
	}
}

// batchAcct accumulates per-batch counter deltas so the hot loop touches
// shared atomics once per batch instead of several times per frame.
type batchAcct struct {
	rxFrames, rxBytes     uint64
	malformed, noMatch    uint64
	forwarded, replicated uint64
	mfHits, mfMisses      uint64
	meterDrops            uint64
}

// processBatch runs a batch of ingress frames through the pipeline. The
// data view, microflow generation and coarse clock are sampled once for the
// whole batch: every frame in it was enqueued before this moment, so
// forwarding it under the sampled state is linearizable.
func (s *Switch) processBatch(in *Port, batch [][]byte, mc *microCache) {
	if len(batch) == 0 {
		return
	}
	v := s.view.Load()
	now := clock.CoarseUnixNano()
	mc.validate(s.gen.Load())
	var acct batchAcct
	for _, frame := range batch {
		acct.rxFrames++
		acct.rxBytes += uint64(len(frame))
		dst, src, ok := packet.PeekAddrs(frame)
		if !ok {
			acct.malformed++
			packet.PutFrameBuf(frame) // dequeued → solely ours; recycle
			continue
		}
		if packet.Traced(frame) {
			traced := packet.AppendTraceHop(frame, packet.TraceHop{
				Kind: packet.HopSwitchIn, Actor: s.dpid, Detail: in.no, At: now,
			})
			packet.PutFrameBuf(frame) // AppendTraceHop copied
			frame = traced
		}
		etherType := binary.BigEndian.Uint16(frame[12:14])
		// Exact-match microflow cache; a miss is the upcall into the flow
		// table, whose answer the cache keeps.
		key := microKey{src: src, dst: dst, etherType: etherType}
		r, ok := mc.lookup(key)
		if ok {
			acct.mfHits++
		} else {
			acct.mfMisses++
			if r = s.flows.lookup(in.no, src, dst, etherType); r != nil {
				mc.insert(key, r)
			}
		}
		if r == nil {
			acct.noMatch++
			packet.PutFrameBuf(frame) // dropped before any handoff
			continue
		}
		r.touch(len(frame), now)
		if mid := r.meter; mid != 0 {
			// Token-bucket policing before any action runs. A rule naming a
			// meter the switch does not hold passes unmetered, so rule and
			// meter programming need no ordering.
			if m := v.meters[mid]; m != nil && !m.allow(len(frame), now) {
				acct.meterDrops++
				packet.PutFrameBuf(frame) // dropped before any handoff
				continue
			}
		}
		if packet.Traced(frame) {
			traced := packet.AppendTraceHop(frame, packet.TraceHop{
				Kind: packet.HopMatch, Actor: s.dpid, Detail: uint32(r.priority), At: now,
			})
			packet.PutFrameBuf(frame)
			frame = traced
		}
		consumed := false
		if n := s.execute(v, in.no, frame, r.loadActions(), 0, 0, false, now, &consumed); n > 0 {
			acct.forwarded += uint64(n)
			if n > 1 {
				acct.replicated += uint64(n - 1)
			}
		}
		if !consumed {
			// Every delivery shipped a copy (controller punt, tunnel encap,
			// trace copy, egress drop) — the original is still solely ours.
			packet.PutFrameBuf(frame)
		}
	}
	in.rxPackets.Add(acct.rxFrames)
	in.rxBytes.Add(acct.rxBytes)
	if acct.malformed > 0 {
		s.malformed.Add(acct.malformed)
	}
	if acct.noMatch > 0 {
		s.rxDropsNoMatch.Add(acct.noMatch)
	}
	if acct.forwarded > 0 {
		s.forwarded.Add(acct.forwarded)
	}
	if acct.replicated > 0 {
		s.replicated.Add(acct.replicated)
	}
	if acct.mfHits > 0 {
		s.mfHits.Add(acct.mfHits)
	}
	if acct.mfMisses > 0 {
		s.mfMisses.Add(acct.mfMisses)
	}
	if acct.meterDrops > 0 {
		s.meterDrops.Add(acct.meterDrops)
	}
}

// execute runs an action list on a frame and returns the number of copies
// actually delivered (ports plus controller punts). depth guards group
// recursion. queue is the egress class selected so far (set_queue actions
// update it, and it propagates into group buckets so LB'd traffic keeps its
// class); lane sends it to worker ports' control lanes instead. consumed
// tracks whether the current frame slice has already been handed to an
// egress ring; once it has, further deliveries copy (unique-ownership
// protocol, see the package comment).
func (s *Switch) execute(v *dataView, inPort uint32, frame []byte, actions []openflow.Action, depth int, queue uint32, lane bool, now int64, consumed *bool) int {
	if depth > 2 {
		return 0
	}
	// Ownership ordering: once a slice is handed to an egress ring its
	// receiver may recycle and overwrite it at any moment, so only the LAST
	// action that reads the frame may take the original; every earlier
	// delivery ships a copy made while the frame is still safe to read.
	last := -1
	for i, a := range actions {
		switch a.Type {
		case openflow.ActOutput, openflow.ActGroup, openflow.ActSetDlDst:
			last = i
		}
	}
	forceCopy := true
	tunDst := ""
	delivered := 0
	for i, a := range actions {
		switch a.Type {
		case openflow.ActSetTunnelDst:
			tunDst = a.Host
		case openflow.ActSetQueue:
			queue = a.Queue
		case openflow.ActSetDlDst:
			// Copy before rewrite: other outputs may alias this frame. The
			// copy is a fresh uniquely-owned slice, so it gets its own
			// consumed flag.
			cp := packet.CopyFrame(frame)
			packet.RewriteDst(cp, a.Addr)
			frame = cp
			fresh := false
			consumed = &fresh
		case openflow.ActOutput:
			cptr := consumed
			if i != last {
				cptr = &forceCopy
			}
			delivered += s.deliver(v, a.Port, frame, tunDst, queue, lane, now, cptr)
		case openflow.ActGroup:
			cptr := consumed
			if i != last {
				cptr = &forceCopy
			}
			delivered += s.executeGroup(v, inPort, frame, a.Group, depth+1, queue, lane, now, cptr)
		}
	}
	return delivered
}

func (s *Switch) executeGroup(v *dataView, inPort uint32, frame []byte, id uint32, depth int, queue uint32, lane bool, now int64, consumed *bool) int {
	g := v.groups[id]
	if g == nil {
		return 0
	}
	switch g.typ {
	case openflow.GroupSelect:
		if g.total == 0 {
			return 0
		}
		// Weighted round robin: slot s of each cycle of total slots goes to
		// the first bucket whose cumulative weight exceeds s.
		slot := uint32(g.next.Add(1)-1) % g.total
		idx, _ := slices.BinarySearch(g.weights, slot+1)
		return s.execute(v, inPort, frame, g.buckets[idx].Actions, depth, queue, lane, now, consumed)
	case openflow.GroupAll:
		// Same last-reader rule as execute: only the final bucket's actions
		// may take the original frame.
		delivered := 0
		forceCopy := true
		lastB := len(g.buckets) - 1
		for i, b := range g.buckets {
			cptr := consumed
			if i != lastB {
				cptr = &forceCopy
			}
			delivered += s.execute(v, inPort, frame, b.Actions, depth, queue, lane, now, cptr)
		}
		return delivered
	}
	return 0
}

// deliver sends one copy of a frame toward a port (or the controller) and
// reports how many copies were actually delivered (0 or 1). lane selects a
// worker port's control lane; otherwise queue selects the egress class on
// ports running per-class queues.
func (s *Switch) deliver(v *dataView, portNo uint32, frame []byte, tunDst string, queue uint32, lane bool, now int64, consumed *bool) int {
	if portNo == openflow.PortController {
		sinks := *s.ctlSinks.Load()
		if len(sinks) == 0 {
			return 0
		}
		if packet.Traced(frame) {
			// AppendTraceHop copies, detaching the punt from the original.
			frame = packet.AppendTraceHop(frame, packet.TraceHop{
				Kind: packet.HopController, Actor: s.dpid, Detail: portNo, At: now,
			})
		} else {
			// The controllers hold punted frames indefinitely; give them a
			// plain (non-pooled) copy so the original stays uniquely owned.
			// One copy serves every sink: sends are sequential and sinks
			// never mutate the frame.
			cp := make([]byte, len(frame))
			copy(cp, frame)
			frame = cp
		}
		for _, sink := range sinks {
			sink.PacketIn(openflow.PacketIn{InPort: portNo, Reason: openflow.ReasonAction, Data: frame})
		}
		return 1
	}
	p := v.ports[portNo]
	if p == nil {
		return 0
	}
	out := frame
	copied := false
	if packet.Traced(frame) {
		kind := packet.HopEgress
		if p.tunnel {
			kind = packet.HopTunnel
		}
		// AppendTraceHop copies, so replicated deliveries that alias this
		// frame each record their own egress hop.
		out = packet.AppendTraceHop(frame, packet.TraceHop{
			Kind: kind, Actor: s.dpid, Detail: portNo, At: now,
		})
		copied = true
	}
	owned := false // out is the original frame, not a copy
	switch {
	case p.tunnel:
		out = EncapTunnel(tunDst, out) // fresh slice; original untouched
	case copied:
		// already a uniquely-owned copy
	case *consumed:
		out = packet.CopyFrame(out)
	default:
		owned = true
	}
	var accepted bool
	switch {
	case lane && p.ctl != nil:
		accepted = p.ctl.TryEnqueue(out)
	case p.qd != nil:
		accepted = p.qd.enqueue(queue, out)
	default:
		accepted = p.tx.TryEnqueue(out)
	}
	if accepted {
		if owned {
			*consumed = true
		}
		return 1
	}
	if !owned {
		// The copy never entered the ring; we are its sole owner.
		packet.PutFrameBuf(out)
	}
	return 0
}

func (s *Switch) idleScanner() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.IdleScanInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopped:
			return
		case <-ticker.C:
			// Judge idleness in the coarse-clock domain that stamps
			// rule.lastHit: the ticker's real time.Now runs up to the
			// coarse granularity (plus jitter) ahead of the cached clock,
			// and that skew would shave the same amount off every idle
			// timeout.
			removed := s.flows.expire(clock.CoarseUnixNano())
			s.notifyRemoved(removed, openflow.RemovedIdleTimeout)
		}
	}
}

func (s *Switch) notifyRemoved(rules []*rule, reason openflow.FlowRemovedReason) {
	s.notify(rules, reason, false)
}

// notify emits FlowRemoved events to the master controller; forced
// bypasses the FlagSendFlowRem opt-in (used when rules vanish behind the
// controller's back).
func (s *Switch) notify(rules []*rule, reason openflow.FlowRemovedReason, forced bool) {
	for _, r := range rules {
		if !forced && r.flags&openflow.FlagSendFlowRem == 0 {
			continue
		}
		ev := openflow.FlowRemoved{
			Match:    r.match,
			Priority: r.priority,
			Cookie:   r.cookie,
			Reason:   reason,
			Packets:  r.packets.Load(),
			Bytes:    r.bytes.Load(),
		}
		s.emitToMaster(masterEvent{fr: &ev})
	}
}
