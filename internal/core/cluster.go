// Package core assembles complete Typhoon deployments in one process — the
// paper's primary contribution wired end to end: per-host software SDN
// switches connected by host-level TCP tunnels, a stateless SDN controller
// speaking the OpenFlow-style protocol, the central coordinator, the
// streaming manager, and per-host worker agents.
//
// The same assembly also builds the Storm-style baseline cluster (worker-
// level TCP, heartbeat-only fault detection) so the paper's head-to-head
// experiments run on identical substrate.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"typhoon/internal/agent"
	"typhoon/internal/chaos"
	"typhoon/internal/controller"
	"typhoon/internal/coordinator"
	"typhoon/internal/manager"
	"typhoon/internal/metrics"
	"typhoon/internal/observe"
	"typhoon/internal/paths"
	"typhoon/internal/scheduler"
	"typhoon/internal/storm"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/worker"
)

// Mode selects the data plane of a cluster.
type Mode int

// Cluster modes.
const (
	// ModeTyphoon runs the SDN data plane.
	ModeTyphoon Mode = iota
	// ModeStorm runs the application-level TCP baseline.
	ModeStorm
)

// Config describes an emulated cluster.
type Config struct {
	Mode Mode
	// Hosts names the emulated compute hosts.
	Hosts []string
	// Scheduler places topologies; nil selects the manager's default,
	// round robin, which the paper uses on both systems for fair
	// comparison (§6).
	Scheduler scheduler.Scheduler
	// HeartbeatTimeout is the manager's worker-failure timeout
	// (Storm defaults to 30 s; experiments shrink it).
	HeartbeatTimeout time.Duration
	// MonitorInterval is the heartbeat scan period; zero disables the
	// monitor.
	MonitorInterval time.Duration
	// HeartbeatInterval is how often agents report worker heartbeats.
	HeartbeatInterval time.Duration
	// DefaultBatchSize is the worker I/O batch size (Typhoon knob).
	DefaultBatchSize int
	// DefaultFlushDeadline bounds how long emitted tuples sit staged in a
	// worker's transport before the worker loop flushes them, in both
	// modes; zero selects worker.DefaultFlushDeadline, negative disables
	// the bound.
	DefaultFlushDeadline time.Duration
	// AckTimeout is the source replay timeout under guaranteed
	// processing.
	AckTimeout time.Duration
	// SwitchRingCapacity sizes switch port rings.
	SwitchRingCapacity int
	// DrainDelay is the agent's stable-removal drain window.
	DrainDelay time.Duration
	// RestartDelay spaces local restarts of crashed workers.
	RestartDelay time.Duration
	// OnWorkerCrash observes worker crashes (experiments).
	OnWorkerCrash func(topo string, id topology.WorkerID, err error)
	// TraceEvery samples one in N emitted frames for tuple-path tracing
	// (Typhoon mode). Zero selects observe.DefaultTraceEvery; negative
	// disables tracing.
	TraceEvery int
	// Controllers is the number of SDN controller instances (Typhoon
	// mode), 0 selecting 1. They form a replicated control plane with
	// coordinator-elected per-switch mastership; with n > 1 a killed
	// controller's switches fail over to a peer without interruption.
	Controllers int
	// Chaos is an optional fault-injection plan executed once the cluster
	// is up; its Seed drives the link impairment table.
	Chaos chaos.Plan
	// QoS configures multi-tenant QoS; QoS.Enable turns it on.
	QoS QoSConfig
}

// Host is one emulated compute host.
type Host struct {
	Name   string
	Switch *switchfabric.Switch
	Agent  *agent.Agent

	switchAgent *controller.SwitchAgent
	tunnel      *tunnelEndpoint
}

// Cluster is a running emulated deployment.
type Cluster struct {
	cfg Config

	// Store is the central coordinator state.
	Store *coordinator.Store
	// Manager is the streaming manager.
	Manager *manager.Manager
	// Controller is the SDN controller (nil in ModeStorm).
	Controller *controller.Controller
	// Env is the shared environment handed to computation logic.
	Env *worker.SharedEnv
	// Obs is the cluster-wide observability layer (always non-nil).
	Obs *Observability
	// Chaos is the fault-injection engine (always non-nil); use it to
	// inject faults at runtime beyond any configured plan.
	Chaos *chaos.Engine

	hosts    map[string]*Host
	fabric   *tunnelFabric
	netem    *chaos.Netem
	stormNet *storm.Network
	// controllers holds every SDN controller instance; Controller aliases
	// controllers[0]. updaters parallels controllers (one updater app per
	// instance, so rescale response tokens stay per-controller).
	controllers []*controller.Controller
	updaters    []*controller.Updater
	updater     *controller.Updater
	// allocators parallels controllers when QoS is enabled (one
	// bandwidth-allocator app per instance, sharded like the updaters).
	allocators []*controller.BandwidthAllocator

	rescalePause *metrics.Histogram
	rescaleKeys  *metrics.Counter

	// scenarioMu serializes scenario runs (they own the shared-env run
	// slot and the scn-* topology names).
	scenarioMu sync.Mutex
}

// NewCluster builds and starts the cluster cfg describes. The zero value of
// each field selects its default. The cluster keeps its own copies of
// cfg's slices, so the caller may reuse them.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg.Hosts = append([]string(nil), cfg.Hosts...)
	cfg.QoS.Queues = append([]switchfabric.QueueClass(nil), cfg.QoS.Queues...)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.DefaultBatchSize <= 0 {
		cfg.DefaultBatchSize = worker.DefaultBatchSize
	}
	c := &Cluster{
		cfg:   cfg,
		Store: coordinator.NewStore(),
		Env:   worker.NewSharedEnv(),
		Obs:   newObservability(cfg.TraceEvery),
		hosts: make(map[string]*Host),
	}

	var ctlAddrs []string
	if cfg.Mode == ModeTyphoon {
		c.netem = chaos.NewNetem(cfg.Chaos.Seed)
		n := cfg.Controllers
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			opts := controller.Options{ID: fmt.Sprintf("ctl-%d", i), EnableQoS: cfg.QoS.Enable}
			if n > 1 {
				// A peer to fail over to: tight ticks so mastership campaigns
				// — and therefore failover detection — run at tens of
				// milliseconds. A lone controller keeps the default tick.
				opts.TickInterval = 50 * time.Millisecond
				opts.LeaseTTL = 300 * time.Millisecond
			}
			ctl, err := controller.New(c.Store, opts)
			if err != nil {
				c.Stop()
				return nil, err
			}
			c.controllers = append(c.controllers, ctl)
			ctlAddrs = append(ctlAddrs, ctl.Addr())
			c.Obs.Registry.GaugeFunc("typhoon_controller_datapaths",
				"Switches connected to the SDN controller.", observe.Labels{"controller": opts.ID},
				func() float64 { return float64(len(ctl.Datapaths())) })
			u := controller.NewUpdater()
			c.updaters = append(c.updaters, u)
			ctl.AddApp(u)
			if cfg.QoS.Enable {
				ba := controller.NewBandwidthAllocator(controller.BandwidthConfig{
					LinkCapacityBps: cfg.QoS.LinkCapacityBps,
				})
				c.allocators = append(c.allocators, ba)
				ctl.AddApp(ba)
			}
			if err := ctl.Start(); err != nil {
				c.Stop()
				return nil, err
			}
		}
		c.Controller = c.controllers[0]
		c.Obs.Collector = controller.NewMetricsCollector(c.controllers...)
		c.Obs.Collector.Register(c.Obs.Registry)
		c.updater = c.updaters[0]
		c.rescalePause = c.Obs.Registry.Histogram("typhoon_rescale_pause_seconds",
			"Source pause duration of managed stable rescales.", nil)
		c.rescaleKeys = c.Obs.Registry.Counter("typhoon_rescale_keys_migrated_total",
			"State entries migrated by managed stable rescales.", nil)
		c.fabric = newTunnelFabric()
	} else {
		c.stormNet = storm.NewNetwork()
	}

	c.Manager = manager.New(c.Store, manager.Options{
		Scheduler:        cfg.Scheduler,
		HeartbeatTimeout: cfg.HeartbeatTimeout,
		MonitorInterval:  cfg.MonitorInterval,
	})
	for _, ctl := range c.controllers {
		ctl.SetManager(c.Manager)
	}

	for i, name := range cfg.Hosts {
		h := &Host{Name: name}
		agentOpts := agent.Options{
			Host:                 name,
			KV:                   c.Store,
			Env:                  c.Env,
			HeartbeatInterval:    cfg.HeartbeatInterval,
			DrainDelay:           cfg.DrainDelay,
			RestartDelay:         cfg.RestartDelay,
			DefaultBatchSize:     cfg.DefaultBatchSize,
			DefaultFlushDeadline: cfg.DefaultFlushDeadline,
			AckTimeout:           cfg.AckTimeout,
			OnWorkerCrash:        cfg.OnWorkerCrash,
		}
		if cfg.Mode == ModeTyphoon {
			swOpts := switchfabric.Options{
				RingCapacity: cfg.SwitchRingCapacity,
			}
			if cfg.QoS.Enable {
				swOpts.EgressQueues = cfg.QoS.queueClasses()
			}
			sw := switchfabric.New(name, uint64(i+1), swOpts)
			sw.Start()
			h.Switch = sw
			c.Obs.registerSwitch(sw)
			tport, err := sw.AddTunnelPort("tun0")
			if err != nil {
				c.Stop()
				return nil, err
			}
			tun, err := startTunnel(name, tport, c.fabric, c.netem)
			if err != nil {
				c.Stop()
				return nil, err
			}
			h.tunnel = tun
			h.switchAgent = controller.ConnectSwitch(ctlAddrs, sw)
			agentOpts.Mode = agent.ModeSDN
			agentOpts.Switch = sw
			agentOpts.FrameSampler = c.Obs.Sampler
			agentOpts.TraceSink = c.Obs.Traces.Record
		} else {
			agentOpts.Mode = agent.ModeStorm
			agentOpts.StormNet = c.stormNet
		}
		ag, err := agent.New(agentOpts)
		if err != nil {
			c.Stop()
			return nil, err
		}
		if err := ag.Start(); err != nil {
			c.Stop()
			return nil, err
		}
		h.Agent = ag
		c.Obs.registerAgentTransports(ag)
		c.Obs.Registry.GaugeFunc("typhoon_agent_workers",
			"Live workers managed by the host's agent.",
			observe.Labels{"host": name},
			func() float64 { return float64(ag.WorkerCount()) })
		c.hosts[name] = h
	}
	c.Manager.Start()
	c.Chaos = chaos.NewEngine(chaosTarget{c}, c.Obs.Registry)
	if !cfg.Chaos.Empty() {
		if err := c.Chaos.RunPlan(cfg.Chaos); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// Host returns a host by name, or nil.
func (c *Cluster) Host(name string) *Host { return c.hosts[name] }

// Controllers lists the SDN controller instances, ctl-0 … ctl-{n-1}: one by
// default, n under Config.Controllers = n. Empty in ModeStorm.
func (c *Cluster) Controllers() []*controller.Controller {
	return append([]*controller.Controller(nil), c.controllers...)
}

// ControllerByID finds a controller instance by its control-plane ID, or
// nil.
func (c *Cluster) ControllerByID(id string) *controller.Controller {
	for _, ctl := range c.controllers {
		if ctl.ID() == id {
			return ctl
		}
	}
	return nil
}

// KillController terminates one controller instance by ID (chaos): its
// switch connections drop, its heartbeat and lease renewals stop, and
// surviving peers, if any, take over its switches once the leases expire,
// reconciling rules with zero interruption to cached-path forwarding.
func (c *Cluster) KillController(id string) error {
	ctl := c.ControllerByID(id)
	if ctl == nil {
		return fmt.Errorf("core: unknown controller %q", id)
	}
	ctl.Stop()
	return nil
}

// MasterOf reports which controller currently masters a host's switch, as
// seen by the first live controller. Stopped instances are skipped — their
// cached view freezes at the moment of death.
func (c *Cluster) MasterOf(host string) (owner string, epoch uint64, ok bool) {
	for _, ctl := range c.controllers {
		if ctl.Stopped() {
			continue
		}
		if owner, epoch, ok = ctl.MasterOf(host); ok {
			return owner, epoch, ok
		}
	}
	return "", 0, false
}

// Submit submits a topology and, in Typhoon mode, waits until the SDN
// controller has programmed the data plane and activated the sources. It
// is SubmitCtx with a timeout-derived context.
func (c *Cluster) Submit(l *topology.Logical, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.SubmitCtx(ctx, l)
}

// SubmitCtx submits a topology and waits for data-plane readiness until
// ctx is cancelled or its deadline passes, returning the context error
// wrapped when the wait is cut short. The submission itself is not rolled
// back on cancellation.
func (c *Cluster) SubmitCtx(ctx context.Context, l *topology.Logical) error {
	if err := c.Manager.Submit(l); err != nil {
		return err
	}
	if c.Controller == nil {
		// Baseline: wait for all workers, then activate the topology so
		// throttled sources start emitting (no startup tuple loss).
		if err := c.waitWorkersRunning(ctx, l.Name); err != nil {
			return err
		}
		_, err := c.Store.Put(paths.Activated(l.Name), []byte("1"))
		return err
	}
	return c.Manager.WaitReadyCtx(ctx, l.Name)
}

func (c *Cluster) waitWorkersRunning(ctx context.Context, name string) error {
	for {
		_, p, err := c.Manager.Describe(name)
		if err == nil {
			running := 0
			for _, h := range c.hosts {
				running += len(h.Agent.RunningWorkers(name))
			}
			if running >= len(p.Workers) {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: topology %s workers not running: %w", name, ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// Worker finds a running worker by ID across hosts (experiments and
// tests); nil if not running.
func (c *Cluster) Worker(topo string, id topology.WorkerID) *worker.Worker {
	for _, h := range c.hosts {
		if w := h.Agent.Worker(topo, id); w != nil {
			return w
		}
	}
	return nil
}

// WorkersOf lists the running workers of a logical node.
func (c *Cluster) WorkersOf(topo, node string) []*worker.Worker {
	_, p, err := c.Manager.Describe(topo)
	if err != nil {
		return nil
	}
	var out []*worker.Worker
	for _, as := range p.Instances(node) {
		if w := c.Worker(topo, as.Worker); w != nil {
			out = append(out, w)
		}
	}
	return out
}

// Rescale changes the parallelism of one node of a running topology with
// the stable update protocol (§3.5): sources are paused, in-flight tuples
// drained, keyed state snapshotted and re-partitioned onto the new
// instance set, flow rules reprogrammed, and sources re-activated. It
// blocks until the rescale completes (ctx bounds the wait) and returns the
// protocol's report. Typhoon mode only.
func (c *Cluster) Rescale(ctx context.Context, topo, node string, parallelism int) (*controller.RescaleReport, error) {
	if c.updater == nil || c.Controller == nil {
		return nil, fmt.Errorf("core: rescale requires the Typhoon SDN control plane")
	}
	timeout := 30 * time.Second
	if dl, ok := ctx.Deadline(); ok {
		timeout = time.Until(dl)
	}
	// Drive through the first live instance: after a controller kill the
	// surviving replicas still accept rescales.
	for i, ctl := range c.controllers {
		if ctl.Stopped() {
			continue
		}
		report, err := c.updaters[i].Rescale(ctl, topo, node, parallelism, timeout)
		if err != nil {
			return nil, err
		}
		c.rescalePause.Record(report.Pause)
		c.rescaleKeys.Add(uint64(report.KeysMigrated))
		return report, nil
	}
	return nil, fmt.Errorf("core: no live controller to drive the rescale")
}

// RescaleVia runs a managed rescale driven by a specific controller
// instance of a replicated control plane (chaos experiments kill the
// driver mid-flight to prove the protocol degrades to a pause).
func (c *Cluster) RescaleVia(ctx context.Context, controllerID, topo, node string, parallelism int) (*controller.RescaleReport, error) {
	timeout := 30 * time.Second
	if dl, ok := ctx.Deadline(); ok {
		timeout = time.Until(dl)
	}
	for i, ctl := range c.controllers {
		if ctl.ID() == controllerID {
			return c.updaters[i].Rescale(ctl, topo, node, parallelism, timeout)
		}
	}
	return nil, fmt.Errorf("core: unknown controller %q", controllerID)
}

// Stop tears the cluster down.
func (c *Cluster) Stop() {
	if c.Chaos != nil {
		c.Chaos.Stop()
	}
	if c.Manager != nil {
		c.Manager.Stop()
	}
	for _, h := range c.hosts {
		if h.Agent != nil {
			h.Agent.Stop()
		}
	}
	for _, ctl := range c.controllers {
		ctl.Stop()
	}
	for _, h := range c.hosts {
		if h.switchAgent != nil {
			h.switchAgent.Close()
		}
		if h.Switch != nil {
			h.Switch.Stop()
		}
		if h.tunnel != nil {
			h.tunnel.close()
		}
	}
	if c.Store != nil {
		c.Store.Close()
	}
}
