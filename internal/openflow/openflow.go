// Package openflow implements the control-plane wire protocol spoken
// between the Typhoon SDN controller and the software SDN switches.
//
// It is a compact OpenFlow-style protocol covering exactly the message set
// the paper's prototype uses (§3.4, Table 3): HELLO/ECHO handshake and
// keepalive, FEATURES discovery, FLOW_MOD rule programming with idle
// timeouts, GROUP_MOD select groups for SDN-level load balancing, PACKET_OUT
// control-tuple injection, PACKET_IN worker-to-controller delivery,
// PORT_STATUS events for fault detection, and PORT/FLOW statistics.
//
// Messages are framed as: version(1) type(1) pad(2) length(4, big endian,
// full message) xid(4). All multi-byte integers are big endian, as in
// OpenFlow (the length field is widened to 32 bits so large statistics
// replies are not artificially capped).
package openflow

import (
	"errors"
	"fmt"

	"typhoon/internal/packet"
)

// Version is the protocol version byte carried in every header.
const Version = 0x01

// HeaderLen is the fixed message header size.
const HeaderLen = 12

// MaxMessageLen bounds a single message (a PacketOut carries at most one
// data-plane frame plus headers).
const MaxMessageLen = 1 << 20

// MsgType enumerates message types.
type MsgType uint8

// Protocol message types.
const (
	TypeHello MsgType = iota + 1
	TypeError
	TypeEchoRequest
	TypeEchoReply
	TypeFeaturesRequest
	TypeFeaturesReply
	TypeFlowMod
	TypeFlowRemoved
	TypeGroupMod
	TypePacketOut
	TypePacketIn
	TypePortStatus
	TypeStatsRequest
	TypeStatsReply
	TypeRoleRequest
	TypeMeterMod
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeError:
		return "ERROR"
	case TypeEchoRequest:
		return "ECHO_REQUEST"
	case TypeEchoReply:
		return "ECHO_REPLY"
	case TypeFeaturesRequest:
		return "FEATURES_REQUEST"
	case TypeFeaturesReply:
		return "FEATURES_REPLY"
	case TypeFlowMod:
		return "FLOW_MOD"
	case TypeFlowRemoved:
		return "FLOW_REMOVED"
	case TypeGroupMod:
		return "GROUP_MOD"
	case TypePacketOut:
		return "PACKET_OUT"
	case TypePacketIn:
		return "PACKET_IN"
	case TypePortStatus:
		return "PORT_STATUS"
	case TypeStatsRequest:
		return "STATS_REQUEST"
	case TypeStatsReply:
		return "STATS_REPLY"
	case TypeRoleRequest:
		return "ROLE_REQUEST"
	case TypeMeterMod:
		return "METER_MOD"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Reserved port numbers.
const (
	// PortController directs frames to the SDN controller (PACKET_IN), and
	// marks controller-injected frames as in_port in PACKET_OUT rules.
	PortController uint32 = 0xFFFFFFFD
	// PortAny matches any port in deletions and stats requests.
	PortAny uint32 = 0xFFFFFFFF
)

// Errors shared by encode/decode.
var (
	ErrTruncated  = errors.New("openflow: truncated message")
	ErrBadVersion = errors.New("openflow: bad protocol version")
	ErrBadType    = errors.New("openflow: unknown message type")
	ErrTooLarge   = errors.New("openflow: message exceeds maximum size")
)

// Message is any protocol message body.
type Message interface {
	// MsgType identifies the concrete message.
	MsgType() MsgType
	// appendBody appends the encoded body (everything after the header).
	appendBody(dst []byte) []byte
}

// FieldSet is a bitmask of populated Match fields; unset fields wildcard.
type FieldSet uint8

// Match field bits.
const (
	FieldInPort FieldSet = 1 << iota
	FieldDlSrc
	FieldDlDst
	FieldEtherType
)

// FieldAll is every match field: the mask of a fully-specified match.
const FieldAll = FieldInPort | FieldDlSrc | FieldDlDst | FieldEtherType

// Has reports whether all bits in f are present.
func (s FieldSet) Has(f FieldSet) bool { return s&f == f }

// String renders the mask like ovs-ofctl wildcard output.
func (s FieldSet) String() string {
	if s == 0 {
		return "any"
	}
	out := ""
	for _, f := range []struct {
		bit  FieldSet
		name string
	}{
		{FieldInPort, "in_port"},
		{FieldDlSrc, "dl_src"},
		{FieldDlDst, "dl_dst"},
		{FieldEtherType, "eth_type"},
	} {
		if s.Has(f.bit) {
			if out != "" {
				out += "|"
			}
			out += f.name
		}
	}
	return out
}

// Match selects frames by ingress port, addresses and EtherType, the exact
// rule vocabulary of Table 3.
type Match struct {
	Fields    FieldSet
	InPort    uint32
	DlSrc     packet.Addr
	DlDst     packet.Addr
	EtherType uint16
}

// Covers reports whether the match accepts a frame with the given
// attributes.
func (m Match) Covers(inPort uint32, src, dst packet.Addr, etherType uint16) bool {
	if m.Fields.Has(FieldInPort) && m.InPort != inPort {
		return false
	}
	if m.Fields.Has(FieldDlSrc) && m.DlSrc != src {
		return false
	}
	if m.Fields.Has(FieldDlDst) && m.DlDst != dst {
		return false
	}
	if m.Fields.Has(FieldEtherType) && m.EtherType != etherType {
		return false
	}
	return true
}

// Equal reports exact structural equality (used for strict deletes).
func (m Match) Equal(o Match) bool { return m == o }

// Normalize returns the match with every wildcarded field zeroed, so two
// semantically equal matches — same mask, same constrained values, junk in
// the ignored fields — become structurally equal. The switch's classifier
// stores normalized matches, so an ADD replaces the rule with the same
// match and priority and a strict delete finds it by plain equality.
func (m Match) Normalize() Match {
	if !m.Fields.Has(FieldInPort) {
		m.InPort = 0
	}
	if !m.Fields.Has(FieldDlSrc) {
		m.DlSrc = packet.Addr{}
	}
	if !m.Fields.Has(FieldDlDst) {
		m.DlDst = packet.Addr{}
	}
	if !m.Fields.Has(FieldEtherType) {
		m.EtherType = 0
	}
	return m
}

// String renders the match like ovs-ofctl output.
func (m Match) String() string {
	s := ""
	if m.Fields.Has(FieldInPort) {
		s += fmt.Sprintf("in_port=%d,", m.InPort)
	}
	if m.Fields.Has(FieldDlSrc) {
		s += fmt.Sprintf("dl_src=%s,", m.DlSrc)
	}
	if m.Fields.Has(FieldDlDst) {
		s += fmt.Sprintf("dl_dst=%s,", m.DlDst)
	}
	if m.Fields.Has(FieldEtherType) {
		s += fmt.Sprintf("eth_type=%#x,", m.EtherType)
	}
	if s == "" {
		return "any"
	}
	return s[:len(s)-1]
}

// ActionType enumerates frame actions.
type ActionType uint8

// Action types.
const (
	ActOutput ActionType = iota + 1
	ActSetDlDst
	ActSetTunnelDst
	ActGroup
	ActSetQueue
)

// Action is one forwarding action. Exactly one interpretation applies per
// Type:
//
//	ActOutput:       Port is the egress port (or PortController).
//	ActSetDlDst:     Addr rewrites the destination address (LB buckets).
//	ActSetTunnelDst: Host names the remote host of the TCP tunnel.
//	ActGroup:        Group selects a group table entry.
//	ActSetQueue:     Queue selects the egress QoS class for later outputs.
type Action struct {
	Type  ActionType
	Port  uint32
	Addr  packet.Addr
	Group uint32
	Host  string
	Queue uint32
}

// Output builds an output action.
func Output(port uint32) Action { return Action{Type: ActOutput, Port: port} }

// SetDlDst builds a destination-rewrite action.
func SetDlDst(a packet.Addr) Action { return Action{Type: ActSetDlDst, Addr: a} }

// SetTunnelDst builds a tunnel-destination action.
func SetTunnelDst(host string) Action { return Action{Type: ActSetTunnelDst, Host: host} }

// ToGroup builds a group action.
func ToGroup(id uint32) Action { return Action{Type: ActGroup, Group: id} }

// SetQueue builds a queue-selection action: frames output after it are
// enqueued on the egress port's per-class queue q (weighted fair queueing).
func SetQueue(q uint32) Action { return Action{Type: ActSetQueue, Queue: q} }

func (a Action) String() string {
	switch a.Type {
	case ActOutput:
		if a.Port == PortController {
			return "output=CONTROLLER"
		}
		return fmt.Sprintf("output=%d", a.Port)
	case ActSetDlDst:
		return fmt.Sprintf("set_dl_dst=%s", a.Addr)
	case ActSetTunnelDst:
		return fmt.Sprintf("set_tun_dst=%s", a.Host)
	case ActGroup:
		return fmt.Sprintf("group=%d", a.Group)
	case ActSetQueue:
		return fmt.Sprintf("set_queue=%d", a.Queue)
	default:
		return fmt.Sprintf("action(%d)", a.Type)
	}
}
