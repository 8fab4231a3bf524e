package core

import (
	"fmt"
	"time"

	"typhoon/internal/chaos"
	"typhoon/internal/scheduler"
	"typhoon/internal/topology"
)

// Option configures a cluster built with NewCluster. A complete Config
// value is itself an Option (it replaces the whole configuration), which
// keeps the previous NewCluster(Config{...}) call style working.
type Option interface{ apply(*Config) }

// apply implements Option: a Config used as an option replaces the entire
// configuration, preserving the legacy positional-literal call style.
func (c Config) apply(dst *Config) { *dst = c }

type optionFunc func(*Config)

func (f optionFunc) apply(c *Config) { f(c) }

// WithMode selects the data plane (ModeTyphoon or ModeStorm).
// Default: ModeTyphoon.
func WithMode(m Mode) Option { return optionFunc(func(c *Config) { c.Mode = m }) }

// WithHosts names the emulated compute hosts. Required: at least one,
// no duplicates.
func WithHosts(hosts ...string) Option {
	return optionFunc(func(c *Config) { c.Hosts = append([]string(nil), hosts...) })
}

// WithScheduler sets the topology placement scheduler.
// Default: scheduler.RoundRobin (the paper's fair-comparison choice).
func WithScheduler(s scheduler.Scheduler) Option {
	return optionFunc(func(c *Config) { c.Scheduler = s })
}

// WithHeartbeatTimeout sets the manager's worker-failure timeout.
// Default: the manager's (Storm-style 30 s unless shrunk).
func WithHeartbeatTimeout(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.HeartbeatTimeout = d })
}

// WithMonitorInterval sets the heartbeat scan period. Default: 0 (monitor
// disabled).
func WithMonitorInterval(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.MonitorInterval = d })
}

// WithHeartbeatInterval sets how often agents report worker heartbeats.
// Default: the agent's built-in interval.
func WithHeartbeatInterval(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.HeartbeatInterval = d })
}

// WithDefaultBatchSize sets the worker I/O batch size.
// Default: worker.DefaultBatchSize.
func WithDefaultBatchSize(n int) Option {
	return optionFunc(func(c *Config) { c.DefaultBatchSize = n })
}

// WithAckTimeout sets the source replay timeout under guaranteed
// processing. Default: acking disabled.
func WithAckTimeout(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.AckTimeout = d })
}

// WithSwitchRingCapacity sizes switch port rings.
// Default: switchfabric's built-in capacity.
func WithSwitchRingCapacity(n int) Option {
	return optionFunc(func(c *Config) { c.SwitchRingCapacity = n })
}

// WithDrainDelay sets the agent's stable-removal drain window.
// Default: the agent's built-in delay.
func WithDrainDelay(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.DrainDelay = d })
}

// WithRestartDelay spaces local restarts of crashed workers.
// Default: the agent's built-in delay.
func WithRestartDelay(d time.Duration) Option {
	return optionFunc(func(c *Config) { c.RestartDelay = d })
}

// WithOnWorkerCrash observes worker crashes (experiments). Default: none.
func WithOnWorkerCrash(fn func(topo string, id topology.WorkerID, err error)) Option {
	return optionFunc(func(c *Config) { c.OnWorkerCrash = fn })
}

// WithTraceEvery samples one in n emitted frames for tuple-path tracing.
// Default 0 selects observe.DefaultTraceEvery; negative disables tracing.
func WithTraceEvery(n int) Option {
	return optionFunc(func(c *Config) { c.TraceEvery = n })
}

// WithControllers runs n SDN controller instances as a replicated control
// plane (Typhoon mode): each switch gets a coordinator-elected master and
// the rest stay as hot-standby slaves, control-plane apps shard by
// topology ownership, and killing any controller fails its switches over
// to a peer without interrupting cached-path forwarding. Default (0 or 1):
// a replicated set of one, ctl-0, which masters every switch.
func WithControllers(n int) Option {
	return optionFunc(func(c *Config) { c.Controllers = n })
}

// WithQoS enables multi-tenant QoS (Typhoon mode): per-topology meters in
// every switch, weighted fair queueing at switch and tunnel egress, and the
// bandwidth-allocator control plane app continuously reassigning meter
// rates from observed demand. Zero-value fields take defaults.
func WithQoS(q QoSConfig) Option {
	return optionFunc(func(c *Config) {
		q.Enable = true
		c.QoS = q
	})
}

// WithChaos schedules a fault-injection plan against the cluster: the plan
// seeds the link impairment table and its events fire on the cluster clock
// once NewCluster returns. Default: no plan (faults can still be injected
// at runtime through Cluster.Chaos).
func WithChaos(p chaos.Plan) Option {
	return optionFunc(func(c *Config) { c.Chaos = p })
}

// validate rejects configurations NewCluster must not build.
func (c *Config) validate() error {
	if len(c.Hosts) == 0 {
		return fmt.Errorf("core: at least one host required")
	}
	seen := make(map[string]bool, len(c.Hosts))
	for _, h := range c.Hosts {
		if h == "" {
			return fmt.Errorf("core: empty host name")
		}
		if seen[h] {
			return fmt.Errorf("core: duplicate host %q", h)
		}
		seen[h] = true
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"HeartbeatTimeout", c.HeartbeatTimeout},
		{"MonitorInterval", c.MonitorInterval},
		{"HeartbeatInterval", c.HeartbeatInterval},
		{"AckTimeout", c.AckTimeout},
		{"DrainDelay", c.DrainDelay},
		{"RestartDelay", c.RestartDelay},
	} {
		if d.v < 0 {
			return fmt.Errorf("core: negative %s", d.name)
		}
	}
	if c.Controllers < 0 {
		return fmt.Errorf("core: negative Controllers")
	}
	if c.Controllers > 1 && c.Mode != ModeTyphoon {
		return fmt.Errorf("core: replicated controllers require ModeTyphoon")
	}
	if c.QoS.Enable && c.Mode != ModeTyphoon {
		return fmt.Errorf("core: QoS requires ModeTyphoon")
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	return nil
}
