package main

import (
	"fmt"

	"typhoon/internal/topology"
)

// workload is one row of the benchmark's workload table. Every workload
// has one source; each sink instance sees every tuple, so deliveries are
// emitted × sinks.
type workload struct {
	name string
	why  string

	hosts    int
	payload  int // bytes per tuple
	ackers   int
	keyed    bool // fields grouping through the stateful counter stage
	counters int  // counter parallelism (keyed only)
	sinks    int
	rescale  bool // the mid phase flips the counter stage 2→4→2…
	storm    bool // the traced pass also runs the Storm baseline

	lowRate float64 // open-loop tuples/s
	midRate float64
}

const (
	topoName    = "bench"
	nodeSource  = "src"
	nodeCounter = "count"
	nodeSink    = "sink"
)

// workloads is the benchmark's fixed workload table (README has the
// reasoning behind each and the layers it puts on the blocking path).
var workloads = []*workload{
	{
		name:  "fwd_local",
		why:   "src->sink on one host, 16 B tuples, unacked: per-tuple cost (codec, packetizer, worker loop, ring, cached unicast) dominates; tunnel, acker, hashing and control plane idle",
		hosts: 1, payload: 16, sinks: 1, storm: true,
		lowRate: 1900, midRate: 500000,
	},
	{
		name:  "fwd_remote_acked",
		why:   "the same chain across the TCP tunnel with one acker: tunnel encap and retry loop, XOR ack bookkeeping and the source pending table are on the blocking path",
		hosts: 2, payload: 16, ackers: 1, sinks: 1,
		lowRate: 1900, midRate: 100000,
	},
	{
		name:  "keyed_rescale",
		why:   "src->countx2->sink on 3 hosts, Zipf(1.2) keys, stage flipped 2->4->2 while loaded: the only workload with router hashing, skew, FlowMod churn, snapshot/restore and the coordinator on the path",
		hosts: 3, payload: 16, keyed: true, counters: 2, sinks: 1, rescale: true,
		lowRate: 1900, midRate: 100000,
	},
	{
		name:  "bcast_remote",
		why:   "src->sinkx4 All-grouped on 2 hosts, 512 B tuples: one serialization, in-switch replication and frame copies, one tunnel copy per remote host; bytes, not tuple count, dominate",
		hosts: 2, payload: 512, sinks: 4, storm: true,
		lowRate: 1900, midRate: 100000,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// hostNames lists the workload's emulated hosts.
func (w *workload) hostNames() []string {
	out := make([]string, w.hosts)
	for i := range out {
		out[i] = fmt.Sprintf("h%d", i+1)
	}
	return out
}

// topology builds the workload's logical topology. Round-robin placement
// puts the source on h1 and deals the rest across the hosts in turn.
func (w *workload) topology() (*topology.Logical, error) {
	b := topology.NewBuilder(topoName, 1)
	if w.ackers > 0 {
		b.Ackers(w.ackers)
	}
	b.Source(nodeSource, logicSource, 1)
	switch {
	case w.keyed:
		b.Node(nodeCounter, logicCounter, w.counters).Stateful().FieldsFrom(nodeSource, fKey)
		b.Node(nodeSink, logicSink, w.sinks).GlobalFrom(nodeCounter)
	case w.sinks > 1:
		b.Node(nodeSink, logicSink, w.sinks).AllFrom(nodeSource)
	default:
		b.Node(nodeSink, logicSink, w.sinks).ShuffleFrom(nodeSource)
	}
	return b.Build()
}
