package core

import (
	"fmt"
	"time"
)

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
