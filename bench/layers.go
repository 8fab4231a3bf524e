package main

import (
	"context"
	"runtime"
	"time"

	"typhoon/internal/core"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/worker"
)

// layerSnap is one sample of the layers' exported counters, summed over
// the cluster's hosts. The traced pass takes one at each window boundary;
// the per-layer counter metrics are differences of two.
type layerSnap struct {
	sw        switchfabric.Counters // only the fields snapLayers sums
	ringDrops uint64                // frames refused by full port rings, both directions
	tunFrames uint64                // frames the switches handed to tunnel ports
	tunBytes  uint64
	rules     int // flow rules resident in the switches

	trDropped uint64 // frames a transport gave up on after its bounded wait

	workers map[topology.WorkerID]workerSnap

	mallocs uint64
	gcPause time.Duration
}

type workerSnap struct {
	node       string
	procNanos  uint64
	tuplesSent uint64 // transport sends: one per (tuple, destination)
	framesSent uint64
}

func snapLayers(c *core.Cluster, w *workload) *layerSnap {
	s := &layerSnap{workers: make(map[topology.WorkerID]workerSnap)}
	for _, name := range w.hostNames() {
		h := c.Host(name)
		if h == nil {
			continue
		}
		if sw := h.Switch; sw != nil { // nil under the Storm baseline
			cs := sw.CountersSnapshot()
			s.sw.Replicated += cs.Replicated
			s.sw.Dropped += cs.Dropped
			s.sw.MicroflowHits += cs.MicroflowHits
			s.sw.MicroflowMisses += cs.MicroflowMisses
			s.sw.Upcalls += cs.Upcalls
			s.rules += sw.RuleCount()
			for _, ps := range sw.PortStatsSnapshot() {
				s.ringDrops += ps.RxDropped + ps.TxDropped
				if p := sw.Port(ps.PortNo); p != nil && p.IsTunnel() {
					s.tunFrames += ps.TxPackets
					s.tunBytes += ps.TxBytes
				}
			}
		}
		h.Agent.EachWorker(func(_ string, id topology.WorkerID, wk *worker.Worker) {
			ts := wk.Transport().Stats()
			s.trDropped += ts.Dropped
			s.workers[id] = workerSnap{
				node: wk.Node(), procNanos: wk.StatsSnapshot().ProcNanos,
				tuplesSent: ts.TuplesSent, framesSent: ts.FramesSent,
			}
		})
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.gcPause = time.Duration(ms.PauseTotalNs)
	return s
}

// sent is what the workers that lived through the whole window sent in
// it. A rescale's short-lived instances take their counters with them, so
// they are left out on both sides of a ratio.
func sent(before, after *layerSnap) (tuples, frames float64) {
	for id, a := range after.workers {
		if b, ok := before.workers[id]; ok {
			tuples += float64(a.tuplesSent - b.tuplesSent)
			frames += float64(a.framesSent - b.framesSent)
		}
	}
	return tuples, frames
}

// busyShare is the busiest operator's share of the window spent inside
// Execute, averaged over the operator's instances that lived through the
// whole window. Sources do not execute, so they never rank.
func busyShare(before, after *layerSnap, wall time.Duration) float64 {
	busy := make(map[string]uint64)
	n := make(map[string]int)
	for id, a := range after.workers {
		b, ok := before.workers[id]
		if !ok || a.procNanos < b.procNanos {
			continue
		}
		busy[a.node] += a.procNanos - b.procNanos
		n[a.node]++
	}
	var top float64
	for node, ns := range busy {
		if share := float64(ns) / float64(n[node]) / float64(wall); share > top {
			top = share
		}
	}
	return top
}

// sampleInQueue records, every 10 ms until ctx ends, the deepest input
// queue among the cluster's workers.
func sampleInQueue(ctx context.Context, c *core.Cluster, w *workload) []float64 {
	var out []float64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return out
		case <-tick.C:
		}
		deepest := 0
		for _, name := range w.hostNames() {
			c.Host(name).Agent.EachWorker(func(_ string, _ topology.WorkerID, wk *worker.Worker) {
				if q := wk.InQueueLen(); q > deepest {
					deepest = q
				}
			})
		}
		out = append(out, float64(deepest))
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
