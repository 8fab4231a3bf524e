package typhoon

// Multi-tenant QoS benchmarks. BenchmarkQoS/Contention runs the paper's
// noisy-neighbour scenario end to end — an acked guaranteed tenant sharing
// a 2 MB/s QoS-enabled fabric with a best-effort flood — and reports the
// guaranteed tenant's p99 complete latency under contention plus how hard
// the flood was policed. BenchmarkQoS/FastPathQoS guards the data-plane
// budget: the cached forwarding path with meters and egress queues active
// must stay allocation-free per frame.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"typhoon/internal/core"
	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
	"typhoon/internal/workload"
)

type qosRun struct {
	GoldP50Ms      float64 `json:"goldP50Ms"`
	GoldP99Ms      float64 `json:"goldP99Ms"`
	GoldCompleted  uint64  `json:"goldTuplesCompleted"`
	MeterDrops     uint64  `json:"floodMeterDrops"`
	FloodRateBps   uint64  `json:"floodAllocatedBps"`
	ContentionSecs float64 `json:"contentionSecs"`
}

// benchQoSContention runs one contention scenario per iteration and
// returns the per-run series for the BENCH_qos.json artifact.
func benchQoSContention(b *testing.B) []qosRun {
	hosts := []string{"h1", "h2"}
	var runs []qosRun
	for i := 0; i < b.N; i++ {
		c, err := core.NewCluster(core.Config{
			Mode: core.ModeTyphoon, Hosts: hosts, DefaultBatchSize: 100,
			QoS: core.QoSConfig{Enable: true, LinkCapacityBps: 2 << 20},
		})
		if err != nil {
			b.Fatal(err)
		}
		c.Env.Set(workload.EnvStats, workload.NewStats(time.Second))
		c.Env.Set(workload.EnvConfig, workload.NewConfig())

		gold := topology.NewBuilder("bench-qos-gold", 21)
		gold.Ackers(1)
		gold.Source("src", workload.LogicSeqSource, 1)
		gold.Node("sink", workload.LogicSeqChecker, 1).ShuffleFrom("src")
		gold.QoS(topology.QoSGuaranteed, 256<<10)
		gl, err := gold.Build()
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Submit(gl, 15*time.Second); err != nil {
			b.Fatal(err)
		}
		src := waitSrc(b, c, "bench-qos-gold")
		deadline := time.Now().Add(15 * time.Second)
		for src.StatsSnapshot().Completed < 200 {
			if time.Now().After(deadline) {
				b.Fatal("guaranteed tenant never reached speed")
			}
			time.Sleep(5 * time.Millisecond)
		}

		flood := topology.NewBuilder("bench-qos-flood", 22)
		flood.Source("fsrc", workload.LogicSeqSource, 2)
		flood.Node("void", workload.LogicSink, 2).ShuffleFrom("fsrc")
		flood.QoS(topology.QoSBestEffort, 0)
		fl, err := flood.Build()
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Submit(fl, 15*time.Second); err != nil {
			b.Fatal(err)
		}
		meterDrops := func() uint64 {
			var n uint64
			for _, h := range hosts {
				n += c.Host(h).Switch.MeterDrops()
			}
			return n
		}
		// Contention starts once the allocator's meters police the flood.
		deadline = time.Now().Add(20 * time.Second)
		for meterDrops() == 0 {
			if time.Now().After(deadline) {
				b.Fatal("flood was never policed")
			}
			time.Sleep(10 * time.Millisecond)
		}
		t0 := time.Now()
		time.Sleep(2 * time.Second)

		r := qosRun{
			GoldP50Ms:      float64(src.CompleteLatencies.Quantile(0.5).Microseconds()) / 1e3,
			GoldP99Ms:      float64(src.CompleteLatencies.Quantile(0.99).Microseconds()) / 1e3,
			GoldCompleted:  src.StatsSnapshot().Completed,
			MeterDrops:     meterDrops(),
			ContentionSecs: time.Since(t0).Seconds(),
		}
		for _, t := range c.QoSStatus().Topologies {
			if t.Topology == "bench-qos-flood" {
				for _, rate := range t.HostRates {
					r.FloodRateBps += rate
				}
			}
		}
		runs = append(runs, r)
		c.Stop()
	}
	var p99, drops float64
	for _, r := range runs {
		p99 += r.GoldP99Ms
		drops += float64(r.MeterDrops)
	}
	b.ReportMetric(p99/float64(len(runs)), "gold-p99-ms")
	b.ReportMetric(drops/float64(len(runs)), "meter-drops")
	return runs
}

// runSwitchForwardQoS mirrors runSwitchForward with the full QoS data plane
// armed: three-class egress queues on every port and a high-rate meter on
// the matching rule, so every frame pays token-bucket accounting and DRR
// scheduling on the cached path without being dropped.
func runSwitchForwardQoS(n int) (fps, allocsPerOp float64) {
	sw := switchfabric.New("bench", 1, switchfabric.Options{
		RingCapacity: 8192,
		EgressQueues: []switchfabric.QueueClass{
			{Name: "guaranteed", Weight: 8},
			{Name: "burstable", Weight: 4},
			{Name: "best-effort", Weight: 1},
		},
	})
	sw.Start()
	defer sw.Stop()
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	// A meter generous enough to never drop: the bench measures the
	// accounting cost, not policing.
	_ = sw.ApplyMeterMod(openflow.MeterMod{
		Command: openflow.MeterAdd, MeterID: 1,
		RateBps: 1 << 40, BurstBytes: 1 << 30,
	})
	fm := openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlSrc | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: p1.No(), DlSrc: a1, DlDst: a2, EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.SetQueue(1), openflow.Output(p2.No())},
	}
	fm.Meter = 1
	_ = sw.ApplyFlowMod(fm)
	frame := packet.EncodeTuples(a2, a1, [][]byte{tuple.Encode(tuple.New(tuple.Int(1)))})
	stop := make(chan struct{})
	done := make(chan struct{}, 1)
	go drainPort(p2, stop, done)
	processed := func() uint64 {
		for _, ps := range sw.PortStatsSnapshot() {
			if ps.PortNo == p1.No() {
				return ps.RxPackets
			}
		}
		return 0
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for !p1.WriteFrame(frame) {
			time.Sleep(10 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for processed() < uint64(n) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	close(stop)
	<-done
	return float64(n) / elapsed.Seconds(), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// BenchmarkQoS bundles the multi-tenant QoS evaluation. With BENCH_JSON
// set in the environment, the contention series and fast-path figures are
// written to that file (CI uploads BENCH_qos.json as an artifact).
func BenchmarkQoS(b *testing.B) {
	var runs []qosRun
	b.Run("Contention", func(b *testing.B) {
		runs = benchQoSContention(b)
	})
	var fps, allocs float64
	b.Run("FastPathQoS", func(b *testing.B) {
		fps, allocs = runSwitchForwardQoS(b.N)
		b.ReportMetric(fps, "frames/s")
		b.ReportMetric(allocs, "allocs/frame")
	})
	if path := os.Getenv("BENCH_JSON"); path != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"benchmark": "BenchmarkQoS",
			"runs":      runs,
			"fastPath": map[string]float64{
				"framesPerSec":   fps,
				"allocsPerFrame": allocs,
			},
		}, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

func waitSrc(b *testing.B, c *core.Cluster, topo string) *worker.Worker {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ws := c.WorkersOf(topo, "src")
		if len(ws) == 1 {
			return ws[0]
		}
		if time.Now().After(deadline) {
			b.Fatal("source missing")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
