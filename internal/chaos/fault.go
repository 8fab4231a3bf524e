package chaos

import (
	"fmt"
	"time"

	"typhoon/internal/topology"
)

// Kind names one fault class. Kinds are strings so Specs round-trip
// through JSON (HTTP endpoint, typhoon-ctl) without a registry.
type Kind string

// The fault catalogue, one entry per injection point.
const (
	// KindPartition cuts the Host↔Peer tunnel link; Duration > 0 heals
	// it automatically after the window.
	KindPartition Kind = "partition"
	// KindHeal restores the Host↔Peer link (both empty: every link).
	KindHeal Kind = "heal"
	// KindNetem sets DropRate/Latency/Jitter on the Host↔Peer link.
	KindNetem Kind = "netem"
	// KindPortDown removes the switch port of worker Topo/Worker,
	// driving the §4 PortStatus fast path.
	KindPortDown Kind = "port-down"
	// KindWipeFlows clears Host's switch flow table.
	KindWipeFlows Kind = "wipe-flows"
	// KindWorkerCrash makes worker Topo/Worker exit with an error.
	KindWorkerCrash Kind = "crash"
	// KindWorkerHang stalls worker Topo/Worker's loop for Duration.
	KindWorkerHang Kind = "hang"
	// KindWorkerSlow adds Delay of processing time per tuple on worker
	// Topo/Worker (zero Delay restores full speed).
	KindWorkerSlow Kind = "slow"
	// KindControllerOutage takes the SDN controller offline; Duration
	// > 0 restores it automatically after the window.
	KindControllerOutage Kind = "controller-outage"
	// KindControllerRestore brings the controller back online.
	KindControllerRestore Kind = "controller-restore"
	// KindPacketOutDelay delays every controller PACKET_OUT by Delay
	// (zero Delay removes the impairment).
	KindPacketOutDelay Kind = "packet-out-delay"
	// KindControllerKill permanently stops the replicated controller
	// instance named by Controller, driving coordinator-elected failover
	// of its mastered switches to a surviving peer.
	KindControllerKill Kind = "controller-kill"
)

// Spec is one declarative fault. Only the fields its Kind documents are
// consulted; Validate rejects specs whose required fields are missing.
type Spec struct {
	Kind Kind `json:"kind"`

	// Topo and Worker select a worker (crash, hang, slow, port-down).
	Topo   string            `json:"topo,omitempty"`
	Worker topology.WorkerID `json:"worker,omitempty"`

	// Host selects a host (wipe-flows) or one end of a link; Peer is
	// the other end (partition, heal, netem).
	Host string `json:"host,omitempty"`
	Peer string `json:"peer,omitempty"`

	// Duration bounds a fault window (partition, hang, controller
	// outage); zero means until explicitly reversed.
	Duration time.Duration `json:"duration,omitempty"`

	// Netem knobs (netem kind).
	DropRate float64       `json:"dropRate,omitempty"`
	Latency  time.Duration `json:"latency,omitempty"`
	Jitter   time.Duration `json:"jitter,omitempty"`

	// Delay is a per-operation delay (slow, packet-out-delay).
	Delay time.Duration `json:"delay,omitempty"`

	// Controller selects a replicated controller instance by ID
	// (controller-kill).
	Controller string `json:"controller,omitempty"`
}

// Validate checks the spec is complete for its kind.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindPartition, KindNetem:
		if s.Host == "" || s.Peer == "" {
			return fmt.Errorf("chaos: %s requires host and peer", s.Kind)
		}
		if s.Host == s.Peer {
			return fmt.Errorf("chaos: %s host and peer must differ", s.Kind)
		}
		// Written so NaN, which fails every comparison, is rejected too.
		if s.Kind == KindNetem && !(s.DropRate >= 0 && s.DropRate <= 1) {
			return fmt.Errorf("chaos: netem drop rate %v outside [0,1]", s.DropRate)
		}
	case KindHeal:
		if (s.Host == "") != (s.Peer == "") {
			return fmt.Errorf("chaos: heal requires both host and peer, or neither")
		}
	case KindWipeFlows:
		if s.Host == "" {
			return fmt.Errorf("chaos: wipe-flows requires host")
		}
	case KindPortDown, KindWorkerCrash, KindWorkerHang, KindWorkerSlow:
		if s.Topo == "" || s.Worker == 0 {
			return fmt.Errorf("chaos: %s requires topo and worker", s.Kind)
		}
		if s.Kind == KindWorkerHang && s.Duration <= 0 {
			return fmt.Errorf("chaos: hang requires a positive duration")
		}
	case KindControllerOutage, KindControllerRestore, KindPacketOutDelay:
		// No required fields.
	case KindControllerKill:
		if s.Controller == "" {
			return fmt.Errorf("chaos: controller-kill requires controller")
		}
	default:
		return fmt.Errorf("chaos: unknown fault kind %q", s.Kind)
	}
	if s.Duration < 0 || s.Latency < 0 || s.Jitter < 0 || s.Delay < 0 {
		return fmt.Errorf("chaos: %s has a negative duration field", s.Kind)
	}
	return nil
}

// String renders the spec compactly for logs and the injection record.
func (s Spec) String() string {
	switch s.Kind {
	case KindHeal:
		if s.Host == "" {
			return "heal all"
		}
		fallthrough
	case KindPartition, KindNetem:
		return fmt.Sprintf("%s %s<->%s", s.Kind, s.Host, s.Peer)
	case KindWipeFlows:
		return fmt.Sprintf("%s %s", s.Kind, s.Host)
	case KindPortDown, KindWorkerCrash, KindWorkerHang, KindWorkerSlow:
		return fmt.Sprintf("%s %s/%d", s.Kind, s.Topo, s.Worker)
	case KindControllerKill:
		return fmt.Sprintf("%s %s", s.Kind, s.Controller)
	default:
		return string(s.Kind)
	}
}
