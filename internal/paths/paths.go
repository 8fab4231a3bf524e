// Package paths defines the coordinator tree layout shared by every
// Typhoon component (the concrete encoding of Table 1's global states):
//
//	/topologies/<name>/logical    JSON topology.Logical   (streaming manager ⇄ SDN controller)
//	/topologies/<name>/physical   JSON topology.Physical  (manager → controller, agents, workers)
//	/agents/<host>                JSON agent registration (agents → manager, controller)
//	/heartbeats/<name>/<worker>   unix-nano timestamp     (agents → manager fault monitor)
//	/status/<name>/netready       generation the SDN controller finished programming
//	/status/<name>/netready.<h>   per-host generation (replicated control plane)
//	/status/<name>/activated      baseline activation marker (manager → agents)
//	/status/<name>/paused         managed-rescale pause marker (updater app → controller)
//	/controlplane/controllers/<id>  JSON controller registration + liveness lease
//	/controlplane/masters/<host>    JSON switch-mastership lease (coordinator-elected)
package paths

import (
	"strconv"
	"strings"

	"typhoon/internal/topology"
)

// Topologies is the prefix covering all topology state.
const Topologies = "/topologies"

// Agents is the prefix covering worker agent registrations.
const Agents = "/agents"

// Heartbeats is the prefix covering worker heartbeats.
const Heartbeats = "/heartbeats"

// Status is the prefix covering controller-written readiness markers.
const Status = "/status"

// ControlPlane is the prefix covering the replicated control plane: the
// controller registrations and the per-switch mastership leases of the
// distributed-controllers design (Yazıcı et al.).
const ControlPlane = "/controlplane"

// Controllers is the prefix covering controller registrations.
const Controllers = ControlPlane + "/controllers"

// Masters is the prefix covering per-switch mastership leases.
const Masters = ControlPlane + "/masters"

// Logical returns the logical-topology node for a topology name.
func Logical(name string) string { return Topologies + "/" + name + "/logical" }

// Physical returns the physical-topology node for a topology name.
func Physical(name string) string { return Topologies + "/" + name + "/physical" }

// TopologyPrefix returns the subtree of one topology.
func TopologyPrefix(name string) string { return Topologies + "/" + name }

// Agent returns the registration node of a worker agent host.
func Agent(host string) string { return Agents + "/" + host }

// Heartbeat returns the heartbeat node of one worker.
func Heartbeat(name string, id topology.WorkerID) string {
	return Heartbeats + "/" + name + "/" + strconv.FormatUint(uint64(id), 10)
}

// HeartbeatPrefix returns the heartbeat subtree of one topology.
func HeartbeatPrefix(name string) string { return Heartbeats + "/" + name }

// NetReady returns the controller-readiness node of one topology.
func NetReady(name string) string { return Status + "/" + name + "/netready" }

// NetReadyHost returns the per-host readiness node of one topology. In a
// replicated control plane each controller programs only the switches it
// masters and records the generation here; the topology's owning controller
// aggregates these into the plain NetReady marker the manager waits on. The
// host rides inside the marker element (dot separator) so ParseStatus keeps
// working on the two-element status layout.
func NetReadyHost(name, host string) string {
	return Status + "/" + name + "/netready." + host
}

// Activated returns the activation marker of one topology (baseline mode:
// sources stay throttled until the manager activates the topology).
func Activated(name string) string { return Status + "/" + name + "/activated" }

// Paused returns the managed-rescale pause marker of one topology. While
// present, the SDN controller's reconciliation neither activates sources
// nor injects SIGNAL flushes: the updater app owns the stable-update
// choreography (§3.5) until it removes the marker.
func Paused(name string) string { return Status + "/" + name + "/paused" }

// ControllerReg returns the registration node of one controller instance.
func ControllerReg(id string) string { return Controllers + "/" + id }

// SwitchMaster returns the mastership-lease node of one switch host.
func SwitchMaster(host string) string { return Masters + "/" + host }

// ParseSwitchMaster parses a mastership-lease path back into the host name.
func ParseSwitchMaster(p string) (host string, ok bool) {
	rest, found := strings.CutPrefix(p, Masters+"/")
	if !found || !ValidName(rest) {
		return "", false
	}
	return rest, true
}

// ValidName reports whether a name is usable as one path element: non-empty
// and free of the separator. Constructors do not validate (callers pass
// compile-time names); parsers reject anything a valid constructor could
// not have produced.
func ValidName(name string) bool {
	return name != "" && !strings.Contains(name, "/")
}

// SplitTopology parses a path under Topologies into the topology name and
// the remaining kind ("logical", "physical", or "" for the subtree root).
// It rejects paths outside the Topologies subtree and malformed names.
func SplitTopology(p string) (name, kind string, ok bool) {
	rest, found := strings.CutPrefix(p, Topologies+"/")
	if !found {
		return "", "", false
	}
	name, kind, _ = strings.Cut(rest, "/")
	if !ValidName(name) {
		return "", "", false
	}
	return name, kind, true
}

// TopologyName extracts the topology name from any path under Topologies,
// or "" when the path lies outside the subtree.
func TopologyName(p string) string {
	name, _, ok := SplitTopology(p)
	if !ok {
		return ""
	}
	return name
}

// ParseAgent parses an agent registration path back into the host name.
func ParseAgent(p string) (host string, ok bool) {
	rest, found := strings.CutPrefix(p, Agents+"/")
	if !found || !ValidName(rest) {
		return "", false
	}
	return rest, true
}

// ParseHeartbeat parses a heartbeat path back into its topology name and
// worker ID, rejecting malformed keys.
func ParseHeartbeat(p string) (name string, id topology.WorkerID, ok bool) {
	rest, found := strings.CutPrefix(p, Heartbeats+"/")
	if !found {
		return "", 0, false
	}
	name, idPart, hasID := strings.Cut(rest, "/")
	if !hasID || !ValidName(name) {
		return "", 0, false
	}
	n, err := strconv.ParseUint(idPart, 10, 32)
	if err != nil {
		return "", 0, false
	}
	return name, topology.WorkerID(n), true
}

// ParseStatus parses a status path into its topology name and marker kind
// ("netready", "activated", "paused").
func ParseStatus(p string) (name, marker string, ok bool) {
	rest, found := strings.CutPrefix(p, Status+"/")
	if !found {
		return "", "", false
	}
	name, marker, hasMarker := strings.Cut(rest, "/")
	if !hasMarker || !ValidName(name) || !ValidName(marker) {
		return "", "", false
	}
	return name, marker, true
}
