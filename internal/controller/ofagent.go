package controller

import (
	"net"
	"sync"
	"time"

	"typhoon/internal/openflow"
	"typhoon/internal/switchfabric"
)

// Agent redial backoff, matching the data-plane tunnel pattern.
const (
	agentRedialBase = 50 * time.Millisecond
	agentRedialMax  = 5 // max backoff shift: 50ms << 5 = 1.6s
)

// SwitchAgent is the switch-side protocol endpoint: it connects a software
// SDN switch to every controller of the control plane (a lone controller is
// a set of one), answers FEATURES/ECHO, applies FLOW_MOD/GROUP_MOD/
// METER_MOD/PACKET_OUT/STATS_REQUEST to the switch, and forwards the
// switch's asynchronous events (PACKET_IN, PORT_STATUS, FLOW_REMOVED)
// upstream. It is the part of the prototype that lives inside DPDK-OVS.
//
// Each controller gets a dedicated link that attaches as a controller sink
// and is maintained forever: when a controller dies, the link redials with
// exponential backoff until it is back, then re-attaches so the controller
// can re-assert its role. Mastership is claimed per link via ROLE_REQUEST,
// so the switch always knows which connection is master.
type SwitchAgent struct {
	sw *switchfabric.Switch

	mu     sync.Mutex
	conns  map[*openflow.Conn]struct{}
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// ConnectSwitch starts one maintained connection per controller address. It
// does not fail if a controller is down: the link keeps dialing in the
// background, which is exactly the behaviour a switch needs while a
// controller restarts.
func ConnectSwitch(addrs []string, sw *switchfabric.Switch) *SwitchAgent {
	a := &SwitchAgent{
		sw:    sw,
		conns: make(map[*openflow.Conn]struct{}),
		stop:  make(chan struct{}),
	}
	for _, addr := range addrs {
		a.wg.Add(1)
		go a.maintain(addr)
	}
	return a
}

// Close severs every link and stops redialing.
func (a *SwitchAgent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		a.wg.Wait()
		return
	}
	a.closed = true
	close(a.stop)
	for conn := range a.conns {
		_ = conn.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}

// track registers a live connection for Close to sever; it reports false
// when the agent is already closed.
func (a *SwitchAgent) track(conn *openflow.Conn) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	a.conns[conn] = struct{}{}
	return true
}

func (a *SwitchAgent) untrack(conn *openflow.Conn) {
	a.mu.Lock()
	delete(a.conns, conn)
	a.mu.Unlock()
}

func (a *SwitchAgent) maintain(addr string) {
	defer a.wg.Done()
	fails := 0
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			shift := fails
			if shift > agentRedialMax {
				shift = agentRedialMax
			}
			select {
			case <-a.stop:
				return
			case <-time.After(agentRedialBase << shift):
			}
			fails++
			continue
		}
		fails = 0
		conn := openflow.NewConn(nc)
		if !a.track(conn) {
			_ = conn.Close()
			return
		}
		link := &ofLink{conn: conn}
		if _, err := conn.Send(openflow.Hello{}); err == nil {
			a.sw.AttachController(link)
			serveOF(conn, a.sw, link)
			// Detach releases mastership if this link held it; the switch
			// buffers master-only events until a successor claims the role.
			a.sw.DetachController(link)
		}
		a.untrack(conn)
		_ = conn.Close()
	}
}

// serveOF runs the switch side of one controller connection until it fails,
// dispatching every controller-to-switch message. The sink identifies this
// connection in the switch's controller registry (mastership claims attach
// to it).
func serveOF(conn *openflow.Conn, sw *switchfabric.Switch, sink switchfabric.ControllerSink) {
	for {
		xid, msg, err := conn.Receive()
		if err != nil {
			return
		}
		switch m := msg.(type) {
		case openflow.Hello:
			// Peer greeting; nothing to do.
		case openflow.EchoRequest:
			_ = conn.SendXID(xid, openflow.EchoReply{Payload: m.Payload})
		case openflow.FeaturesRequest:
			_ = conn.SendXID(xid, openflow.FeaturesReply{
				DatapathID: sw.DatapathID(),
				Host:       sw.Name(),
				Ports:      sw.Ports(),
			})
		case openflow.RoleRequest:
			// Epoch-fenced mastership claim; the switch refuses stale epochs
			// (see Switch.ClaimMaster).
			if m.Master {
				sw.ClaimMaster(sink, m.Epoch)
			} else {
				sw.ReleaseMaster(sink, m.Epoch)
			}
		case openflow.FlowMod:
			if err := sw.ApplyFlowMod(m); err != nil {
				_ = conn.SendXID(xid, openflow.Error{Code: openflow.ErrCodeBadRequest, Msg: err.Error()})
			}
		case openflow.GroupMod:
			if err := sw.ApplyGroupMod(m); err != nil {
				_ = conn.SendXID(xid, openflow.Error{Code: openflow.ErrCodeUnknownGroup, Msg: err.Error()})
			}
		case openflow.MeterMod:
			if err := sw.ApplyMeterMod(m); err != nil {
				_ = conn.SendXID(xid, openflow.Error{Code: openflow.ErrCodeBadRequest, Msg: err.Error()})
			}
		case openflow.PacketOut:
			if err := sw.Inject(m); err != nil {
				_ = conn.SendXID(xid, openflow.Error{Code: openflow.ErrCodeBadRequest, Msg: err.Error()})
			}
		case openflow.StatsRequest:
			reply := openflow.StatsReply{Kind: m.Kind}
			switch m.Kind {
			case openflow.StatsPort:
				reply.Ports = sw.PortStatsSnapshot()
			case openflow.StatsFlow:
				reply.Flows = sw.FlowStatsSnapshot()
			}
			_ = conn.SendXID(xid, reply)
		}
	}
}

// ofLink is one controller connection of a SwitchAgent.
type ofLink struct {
	conn *openflow.Conn
}

// PacketIn implements switchfabric.ControllerSink.
func (l *ofLink) PacketIn(m openflow.PacketIn) { _, _ = l.conn.Send(m) }

// PortStatus implements switchfabric.ControllerSink.
func (l *ofLink) PortStatus(m openflow.PortStatus) { _, _ = l.conn.Send(m) }

// FlowRemoved implements switchfabric.ControllerSink.
func (l *ofLink) FlowRemoved(m openflow.FlowRemoved) { _, _ = l.conn.Send(m) }
