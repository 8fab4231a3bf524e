// Package typhoon is the public API of the Typhoon reproduction: an
// SDN-enhanced real-time stream processing framework (Cho et al.,
// CoNEXT 2017) implemented in pure Go.
//
// A Typhoon deployment consists of emulated compute hosts, each with a
// software SDN switch, connected by host-level TCP tunnels and programmed
// by a central SDN controller; stream topologies are built with a fluent
// builder, computation logic is registered by name, and running topologies
// can be reconfigured — parallelism, routing policies, even computation
// logic — without restarting (see DESIGN.md for the architecture map).
//
// Quick start:
//
//	typhoon.RegisterBolt("my/sink", func() typhoon.Bolt { return &sink{} })
//
//	cluster, _ := typhoon.NewCluster(typhoon.Config{Hosts: []string{"h1", "h2"}})
//	defer cluster.Stop()
//
//	b := typhoon.NewTopology("wordcount", 1)
//	b.Source("input", "workload/sentence-source", 1)
//	b.Node("count", "my/sink", 2).FieldsFrom("input", 0)
//	topo, _ := b.Build()
//	cluster.Submit(topo, 10*time.Second)
//
// The same Config with Mode set to ModeStorm builds the paper's baseline
// (application-level TCP routing) on identical substrate, which is how the
// evaluation harness in internal/experiments reproduces the paper's
// comparisons.
package typhoon

import (
	"typhoon/internal/chaos"
	"typhoon/internal/controller"
	"typhoon/internal/core"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// Tuple model.
type (
	// Tuple is an ordered list of dynamically typed values on a stream.
	Tuple = tuple.Tuple
	// Value is one tuple field.
	Value = tuple.Value
	// StreamID identifies a logical stream.
	StreamID = tuple.StreamID
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = tuple.Int
	// Float builds a float value.
	Float = tuple.Float
	// Bool builds a boolean value.
	Bool = tuple.Bool
	// String builds a string value.
	String = tuple.String
	// Bytes builds a byte-slice value.
	Bytes = tuple.Bytes
)

// Computation logic interfaces (the application computation layer).
type (
	// Component is the lifecycle shared by all logic.
	Component = worker.Component
	// Bolt consumes tuples.
	Bolt = worker.Bolt
	// Spout produces tuples.
	Spout = worker.Spout
	// Context gives logic its identity, emission and environment.
	Context = worker.Context
	// SharedEnv carries external services into components.
	SharedEnv = worker.SharedEnv
	// StatefulComponent is logic whose keyed state migrates during
	// managed stable rescales (§3.5).
	StatefulComponent = worker.StatefulComponent
	// KeyRange is a half-open partition interval [From, To) passed to
	// StatefulComponent snapshots.
	KeyRange = worker.KeyRange
)

// RegisterLogic installs a computation-logic factory under a name that
// topologies reference; re-registering a name hot-swaps the factory.
func RegisterLogic(name string, f func() Component) { worker.RegisterLogic(name, f) }

// RegisterBolt installs a bolt factory.
func RegisterBolt(name string, f func() Bolt) {
	worker.RegisterLogic(name, func() worker.Component { return f() })
}

// RegisterSpout installs a spout factory.
func RegisterSpout(name string, f func() Spout) {
	worker.RegisterLogic(name, func() worker.Component { return f() })
}

// Topology building.
type (
	// Topology is a validated logical topology.
	Topology = topology.Logical
	// TopologyBuilder assembles topologies fluently.
	TopologyBuilder = topology.Builder
	// NodeSpec declares one logical node.
	NodeSpec = topology.NodeSpec
	// RoutingPolicy selects tuple routing between nodes.
	RoutingPolicy = topology.RoutingPolicy
)

// QoS rate classes (multi-tenant QoS; see docs/QOS.md). Assign one with
// TopologyBuilder.QoS; topologies without a class are best-effort.
const (
	// QoSGuaranteed is never policed and drains first under contention.
	QoSGuaranteed = topology.QoSGuaranteed
	// QoSBurstable shares spare link capacity by demand.
	QoSBurstable = topology.QoSBurstable
	// QoSBestEffort (the default) shares a quarter of spare capacity.
	QoSBestEffort = topology.QoSBestEffort
)

// Routing policies (§2).
const (
	// Shuffle routes round robin.
	Shuffle = topology.Shuffle
	// Fields routes by key hash.
	Fields = topology.Fields
	// Global routes everything to instance 0.
	Global = topology.Global
	// All broadcasts to every instance (network-level replication in
	// Typhoon mode).
	All = topology.All
	// SDNBalanced lets switch select-groups pick destinations.
	SDNBalanced = topology.SDNBalanced
)

// NewTopology starts a topology with a name and application ID.
func NewTopology(name string, app uint16) *TopologyBuilder {
	return topology.NewBuilder(name, app)
}

// Cluster deployment.
type (
	// Cluster is a running deployment.
	Cluster = core.Cluster
	// Config describes a deployment. A Config value is itself an Option,
	// so the struct-literal call style keeps working alongside With*.
	Config = core.Config
	// Mode selects the data plane.
	Mode = core.Mode
	// Option configures NewCluster.
	Option = core.Option
	// QoSConfig enables and sizes multi-tenant QoS (Config.QoS).
	QoSConfig = core.QoSConfig
)

// Deployment modes.
const (
	// ModeTyphoon runs the SDN data plane (default).
	ModeTyphoon = core.ModeTyphoon
	// ModeStorm runs the application-level TCP baseline.
	ModeStorm = core.ModeStorm
)

// Cluster options. Each documents its default in internal/core.
var (
	// WithMode selects the data plane (default ModeTyphoon).
	WithMode = core.WithMode
	// WithHosts names the emulated compute hosts (required).
	WithHosts = core.WithHosts
	// WithScheduler sets the placement scheduler (default round robin).
	WithScheduler = core.WithScheduler
	// WithHeartbeatTimeout sets the manager's worker-failure timeout.
	WithHeartbeatTimeout = core.WithHeartbeatTimeout
	// WithMonitorInterval sets the heartbeat scan period (default off).
	WithMonitorInterval = core.WithMonitorInterval
	// WithHeartbeatInterval sets the agents' heartbeat report period.
	WithHeartbeatInterval = core.WithHeartbeatInterval
	// WithDefaultBatchSize sets the worker I/O batch size.
	WithDefaultBatchSize = core.WithDefaultBatchSize
	// WithAckTimeout enables guaranteed processing with a replay timeout.
	WithAckTimeout = core.WithAckTimeout
	// WithSwitchRingCapacity sizes switch port rings.
	WithSwitchRingCapacity = core.WithSwitchRingCapacity
	// WithDrainDelay sets the agents' stable-removal drain window.
	WithDrainDelay = core.WithDrainDelay
	// WithRestartDelay spaces local restarts of crashed workers.
	WithRestartDelay = core.WithRestartDelay
	// WithOnWorkerCrash observes worker crashes.
	WithOnWorkerCrash = core.WithOnWorkerCrash
	// WithTraceEvery samples one in n frames for tuple-path tracing.
	WithTraceEvery = core.WithTraceEvery
	// WithControllers runs n replicated SDN controllers with
	// coordinator-elected per-switch mastership (default: a set of one).
	WithControllers = core.WithControllers
	// WithQoS enables multi-tenant QoS: per-topology meters, weighted
	// egress queues, and the online bandwidth allocator (docs/QOS.md).
	WithQoS = core.WithQoS
	// WithChaos schedules a fault-injection plan (see package chaos).
	WithChaos = core.WithChaos
)

// NewCluster builds and starts a cluster. It accepts either a single
// Config literal (legacy style) or any combination of With* options:
//
//	typhoon.NewCluster(typhoon.WithHosts("h1", "h2"), typhoon.WithChaos(plan))
func NewCluster(options ...Option) (*Cluster, error) { return core.NewCluster(options...) }

// Fault injection (chaos engineering).
type (
	// ChaosPlan is an ordered, clock-driven fault schedule.
	ChaosPlan = chaos.Plan
	// ChaosEvent is one scheduled fault.
	ChaosEvent = chaos.Event
	// ChaosSpec declares one fault to inject.
	ChaosSpec = chaos.Spec
	// ChaosKind selects the fault class of a ChaosSpec.
	ChaosKind = chaos.Kind
)

// SDN control plane applications (§4).
type (
	// FaultDetector reroutes around dead workers on port-removal events.
	FaultDetector = controller.FaultDetector
	// AutoScaler scales nodes from pushed worker statistics.
	AutoScaler = controller.AutoScaler
	// AutoScalePolicy configures the auto-scaler.
	AutoScalePolicy = controller.AutoScalePolicy
	// LiveDebugger taps workers with switch-level frame mirroring.
	LiveDebugger = controller.LiveDebugger
	// LoadBalancer adjusts SDN select-group weights.
	LoadBalancer = controller.LoadBalancer
	// MetricsCollector exposes the controllers' worker statistics to the
	// observability layer (a cluster adds one automatically in Typhoon mode).
	MetricsCollector = controller.MetricsCollector
	// RescaleReport describes one completed managed stable rescale
	// (§3.5), as returned by Cluster.Rescale.
	RescaleReport = controller.RescaleReport
)

// App constructors.
var (
	// NewFaultDetector builds the fault-detector app.
	NewFaultDetector = controller.NewFaultDetector
	// NewAutoScaler builds the auto-scaler app.
	NewAutoScaler = controller.NewAutoScaler
	// NewLiveDebugger builds the live-debugger app.
	NewLiveDebugger = controller.NewLiveDebugger
	// NewLoadBalancer builds the SDN load-balancer app.
	NewLoadBalancer = controller.NewLoadBalancer
)
