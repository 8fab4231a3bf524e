package core

import (
	"testing"

	"typhoon/internal/switchfabric"
)

// TestNewClusterCopiesConfigSlices: the cluster keeps its own copies of
// Config.Hosts and Config.QoS.Queues, so a caller that reuses its slices
// after NewCluster changes nothing the cluster reports or builds.
func TestNewClusterCopiesConfigSlices(t *testing.T) {
	hosts := []string{"h1", "h2"}
	queues := DefaultQueueClasses()
	c, err := NewCluster(Config{Hosts: hosts, QoS: QoSConfig{Enable: true, Queues: queues}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	hosts[0] = "zz"
	queues[0] = switchfabric.QueueClass{Name: "zz", Weight: 1}

	if rows := c.TopSnapshot().Switches; len(rows) != 2 || rows[0].Host != "h1" {
		t.Errorf("TopSnapshot switch rows = %+v, want h1 and h2", rows)
	}
	if q := c.QoSStatus().Queues; len(q) == 0 || q[0].Name != DefaultQueueClasses()[0].Name {
		t.Errorf("QoSStatus queue classes = %+v, want the defaults", q)
	}
}
