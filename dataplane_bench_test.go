package typhoon

// Data-plane fast-path benchmark suite: the microflow cache, the zero-alloc
// tuple pipeline and the switch forwarding loop. `scripts/bench.sh` runs
// BenchmarkDataplane with BENCH_JSON set to emit BENCH_dataplane.json
// (uploaded by CI next to BENCH_rescale.json); the named benchmarks expose
// the same scenarios individually for `go test -bench`.
//
// The measurement cores are plain functions over an op count rather than
// *testing.B helpers so BenchmarkDataplane can drive them directly:
// testing.Benchmark deadlocks on the framework's global benchmark lock when
// called from inside a running benchmark.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// drainPort consumes and recycles frames from an egress port until the ring
// closes or stop is signalled, acting like a real receiver: without the
// recycling, the frame pool drains and every in-switch CopyFrame falls back
// to a fresh allocation.
func drainPort(p *switchfabric.Port, stop <-chan struct{}, done chan<- struct{}) {
	defer func() { done <- struct{}{} }()
	var scratch [][]byte
	for {
		frames, err := p.ReadBatch(scratch[:0], 256, 50*time.Millisecond)
		if err != nil {
			return
		}
		scratch = frames
		for _, f := range frames {
			packet.PutFrameBuf(f)
		}
		select {
		case <-stop:
			return
		default:
		}
	}
}

// runSwitchForward pushes n unicast frames through one switch port and
// returns the steady-state forwarding rate plus the pipeline's allocations
// per frame (measured across all goroutines from first write to last
// delivery). rules controls flow-table pressure: the matching rule hides
// behind rules-1 higher-priority decoys, which the one classifier lookup on
// the microflow miss scans past and every cached frame after it skips.
func runSwitchForward(n, rules int) (fps, allocsPerOp float64) {
	sw := switchfabric.New("bench", 1, switchfabric.Options{RingCapacity: 8192})
	sw.Start()
	defer sw.Stop()
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	for i := 0; i < rules-1; i++ {
		decoy := packet.WorkerAddr(7, uint32(1000+i))
		_ = sw.ApplyFlowMod(openflow.FlowMod{
			Command: openflow.FlowAdd, Priority: 200,
			Match: openflow.Match{
				Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
				InPort: p1.No(), DlDst: decoy, EtherType: packet.EtherType,
			},
			Actions: []openflow.Action{openflow.Output(p2.No())},
		})
	}
	_ = sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlSrc | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: p1.No(), DlSrc: a1, DlDst: a2, EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.Output(p2.No())},
	})
	// Non-pooled exact-cap frame: safe to write repeatedly because the
	// pool's capacity gate keeps it from ever being recycled.
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

// BenchmarkSwitchForward measures the switch hot path across flow-table
// sizes. The rule counts trace the forwarding curve: the microflow cache in
// front of the classifier keeps it flat from 1 rule to 10k.
func BenchmarkSwitchForward(b *testing.B) {
	for _, rules := range []int{1, 64, 1000, 10000} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			fps, allocs := runSwitchForward(b.N, rules)
			b.ReportMetric(fps, "frames/s")
			b.ReportMetric(allocs, "allocs/frame")
		})
	}
}

// runBroadcastFanout installs one rule with fanout output actions, pushes n
// frames, and returns ingress frames/s and delivered copies/s (the
// serialization-free broadcast of Fig 9: replication happens inside the
// switch).
func runBroadcastFanout(n, fanout int) (fps, dps float64) {
	sw := switchfabric.New("bench", 1, switchfabric.Options{RingCapacity: 8192})
	sw.Start()
	defer sw.Stop()
	a1 := packet.WorkerAddr(1, 1)
	p1, _ := sw.AddPort("w1", a1)
	var acts []openflow.Action
	var sinks []*switchfabric.Port
	for i := 0; i < fanout; i++ {
		p, _ := sw.AddPort("sink", packet.WorkerAddr(1, uint32(2+i)))
		sinks = append(sinks, p)
		acts = append(acts, openflow.Output(p.No()))
	}
	_ = sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: p1.No(), DlDst: packet.Broadcast, EtherType: packet.EtherType,
		},
		Actions: acts,
	})
	frame := packet.EncodeTuples(packet.Broadcast, a1, [][]byte{tuple.Encode(tuple.New(tuple.Int(1)))})
	stop := make(chan struct{})
	done := make(chan struct{}, fanout)
	for _, p := range sinks {
		go drainPort(p, stop, done)
	}
	processed := func() uint64 {
		for _, ps := range sw.PortStatsSnapshot() {
			if ps.PortNo == p1.No() {
				return ps.RxPackets
			}
		}
		return 0
	}
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
	close(stop)
	for range sinks {
		<-done
	}
	return float64(n) / elapsed.Seconds(), float64(n*fanout) / elapsed.Seconds()
}

// BenchmarkBroadcastFanout measures in-switch replication at fan-out 1/4/16.
func BenchmarkBroadcastFanout(b *testing.B) {
	for _, fanout := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			fps, dps := runBroadcastFanout(b.N, fanout)
			b.ReportMetric(fps, "frames/s")
			b.ReportMetric(dps, "deliveries/s")
		})
	}
}

// tupleCodecStats measures a full serialize/deserialize round trip of a
// representative tuple: wall-clock over n ops, allocations via AllocsPerRun.
func tupleCodecStats(n int) (nsPerOp, allocsPerOp float64) {
	in := tuple.New(tuple.String("the quick brown fox"), tuple.Int(42), tuple.Float(3.14))
	buf := make([]byte, 0, 128)
	op := func() {
		buf = tuple.AppendEncode(buf[:0], in)
		if _, _, err := tuple.Decode(buf); err != nil {
			panic(err)
		}
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), testing.AllocsPerRun(1000, op)
}

// BenchmarkTupleEncodeDecode measures the codec round trip on the tuple
// fast path.
func BenchmarkTupleEncodeDecode(b *testing.B) {
	in := tuple.New(tuple.String("the quick brown fox"), tuple.Int(42), tuple.Float(3.14))
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = tuple.AppendEncode(buf[:0], in)
		if _, _, err := tuple.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// packetizerStats measures frame staging and flush with pool recycling —
// the steady-state egress path.
func packetizerStats(n int) (nsPerOp, allocsPerOp float64) {
	src := packet.WorkerAddr(1, 1)
	dst := packet.WorkerAddr(1, 2)
	enc := tuple.Encode(tuple.New(tuple.String("payload"), tuple.Int(7)))
	p := packet.NewPacketizer(src, 0)
	i := 0
	op := func() {
		for _, fr := range p.Add(dst, enc) {
			packet.PutFrameBuf(fr)
		}
		if i++; i%100 == 99 {
			for _, fr := range p.FlushAll() {
				packet.PutFrameBuf(fr)
			}
		}
	}
	t0 := time.Now()
	for j := 0; j < n; j++ {
		op()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), testing.AllocsPerRun(1000, op)
}

// BenchmarkPacketizer measures frame multiplexing in the Typhoon I/O layer.
func BenchmarkPacketizer(b *testing.B) {
	src := packet.WorkerAddr(1, 1)
	dst := packet.WorkerAddr(1, 2)
	enc := tuple.Encode(tuple.New(tuple.String("payload"), tuple.Int(7)))
	p := packet.NewPacketizer(src, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, fr := range p.Add(dst, enc) {
			packet.PutFrameBuf(fr)
		}
		if i%100 == 99 {
			for _, fr := range p.FlushAll() {
				packet.PutFrameBuf(fr)
			}
		}
	}
}

// benchBatchSize is the batch the headline emit→recv figures are measured
// at — the transport's DefaultBatchSize as shipped by cluster configs.
const benchBatchSize = 100

// runEmitRecv drives n tuples through the full emit→switch→recv pipeline
// between two worker transports on one switch at the given transport batch
// size, returning end-to-end tuples/s and allocations per tuple (all
// goroutines: sender, switch pump, receiver). A tail dropped under
// backpressure is detected by a silent window rather than waited on forever.
func runEmitRecv(n, batch int) (tps, allocsPerOp float64) {
	sw := switchfabric.New("h1", 1, switchfabric.Options{RingCapacity: 8192})
	sw.Start()
	defer sw.Stop()
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	src := worker.NewSDNTransport(1, 1, p1, worker.SDNTransportConfig{BatchSize: batch})
	dst := worker.NewSDNTransport(1, 2, p2, worker.SDNTransportConfig{BatchSize: batch})
	_ = sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: p1.No(), DlDst: a2, EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.Output(p2.No())},
	})
	in := tuple.New(tuple.String("the quick brown fox"), tuple.Int(42))
	d := worker.Destination{Workers: []topology.WorkerID{2}}
	done := make(chan int, 1)
	go func() {
		got, empty := 0, 0
		for got < n {
			out, err := dst.Recv(256, 250*time.Millisecond)
			if err != nil {
				break
			}
			if len(out) == 0 {
				if empty++; empty >= 4 {
					break // a second of silence: the tail was dropped
				}
				continue
			}
			empty = 0
			got += len(out)
		}
		done <- got
	}()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := src.Send(d, in); err != nil {
			break
		}
	}
	_ = src.Flush()
	got := <-done
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	return float64(got) / elapsed.Seconds(), float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}

// BenchmarkEmitRecvPath measures the end-to-end tuple pipeline at the
// default transport batch size.
func BenchmarkEmitRecvPath(b *testing.B) {
	tps, allocs := runEmitRecv(b.N, benchBatchSize)
	b.ReportMetric(tps, "tuples/s")
	b.ReportMetric(allocs, "allocs/tuple")
}

// BenchmarkEmitRecvBatchSweep traces the batching trade-off: batch 1 pays
// one frame per tuple (the latency-first extreme), 256 packs frames to the
// payload budget.
func BenchmarkEmitRecvBatchSweep(b *testing.B) {
	for _, batch := range []int{1, benchBatchSize, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			tps, allocs := runEmitRecv(b.N, batch)
			b.ReportMetric(tps, "tuples/s")
			b.ReportMetric(allocs, "allocs/tuple")
		})
	}
}

// TestEmitRecvAllocRegression is the allocation guard for the emit→recv
// pipeline: the pre-arena pipeline spent ~2 allocs per tuple (the decoded
// tuple's value slice and string copy, plus the per-Recv output slice).
// Arena decode and the reused Recv window eliminate all of them on the
// steady path — what remains is amortized arena chunk growth and harness
// noise, well under a tenth of an alloc per tuple.
func TestEmitRecvAllocRegression(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("benchmark-backed guard; the race runtime allocates")
	}
	_, allocs := runEmitRecv(300_000, benchBatchSize)
	if allocs > 0.3 {
		t.Fatalf("emit→recv path allocates %.2f/tuple, want <= 0.3 (arena decode regressed)", allocs)
	}
}

// TestSwitchForwardAllocRegression guards the switch hot loop: forwarding a
// frame through cache lookup + egress hands off the original buffer and
// must not allocate (the small budget absorbs ring-batch and timer noise
// from the surrounding harness).
func TestSwitchForwardAllocRegression(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("benchmark-backed guard; the race runtime allocates")
	}
	_, allocs := runSwitchForward(300_000, 16)
	if allocs > 0.05 {
		t.Fatalf("switch forward path allocates %.3f/frame, want ~0", allocs)
	}
}

// TestRuleScaleForwardRegression pins the property of the microflow cache:
// cached forwarding throughput is flat in the rule count, because the rule
// list is scanned once per microflow, not per frame. The 1.5x bound is
// deliberately loose — the figures should be within noise of each other —
// but fails decisively if frames reach the rule-linear scan. One run of
// either size swings by ~1.5x with goroutine placement on a small machine,
// so each side is the best of a few interleaved runs.
func TestRuleScaleForwardRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard")
	}
	const n, runs = 200_000, 3
	var fps1, fps10k float64
	for i := 0; i < runs; i++ {
		f1, _ := runSwitchForward(n, 1)
		f10k, _ := runSwitchForward(n, 10_000)
		fps1, fps10k = max(fps1, f1), max(fps10k, f10k)
	}
	t.Logf("cached forwarding: %.0f fps at 1 rule, %.0f fps at 10k rules", fps1, fps10k)
	if fps10k <= 0 || fps1/fps10k > 1.5 {
		t.Fatalf("cached forwarding at 10k rules is %.0f fps vs %.0f at 1 rule (%.2fx slowdown, want <= 1.5x)",
			fps10k, fps1, fps1/fps10k)
	}
}

// BenchmarkDataplane aggregates the suite above into one machine-readable
// report. With BENCH_JSON set, the results are written to that file
// (BENCH_dataplane.json in CI). Run with -benchtime 1x: the scenarios use
// fixed op counts internally.
func BenchmarkDataplane(b *testing.B) {
	type codecStat struct {
		NsPerOp     float64 `json:"nsPerOp"`
		AllocsPerOp float64 `json:"allocsPerOp"`
	}
	type report struct {
		SwitchForwardFPS map[string]float64 `json:"switchForwardFramesPerSec"`
		SwitchAllocs     float64            `json:"switchForwardAllocsPerFrame"`
		RuleScale1to10k  float64            `json:"cachedRuleScale1to10k"`
		BroadcastDPS     map[string]float64 `json:"broadcastDeliveriesPerSec"`
		TupleCodec       codecStat          `json:"tupleEncodeDecode"`
		Packetizer       codecStat          `json:"packetizer"`
		EmitRecvTPS      float64            `json:"emitRecvTuplesPerSec"`
		EmitRecvAllocs   float64            `json:"emitRecvAllocsPerTuple"`
		EmitRecvSweepTPS map[string]float64 `json:"emitRecvBatchSweepTuplesPerSec"`
		EmitRecvSweepAll map[string]float64 `json:"emitRecvBatchSweepAllocsPerTuple"`
	}
	var rep report
	for i := 0; i < b.N; i++ {
		rep = report{
			SwitchForwardFPS: map[string]float64{},
			BroadcastDPS:     map[string]float64{},
			EmitRecvSweepTPS: map[string]float64{},
			EmitRecvSweepAll: map[string]float64{},
		}
		for _, rules := range []int{1, 64, 1000, 10000} {
			fps, allocs := runSwitchForward(300_000, rules)
			rep.SwitchForwardFPS[fmt.Sprintf("rules=%d", rules)] = fps
			if rules == 64 {
				rep.SwitchAllocs = allocs
			}
		}
		if at10k := rep.SwitchForwardFPS["rules=10000"]; at10k > 0 {
			rep.RuleScale1to10k = rep.SwitchForwardFPS["rules=1"] / at10k
		}
		for _, fanout := range []int{1, 4, 16} {
			_, dps := runBroadcastFanout(200_000, fanout)
			rep.BroadcastDPS[fmt.Sprintf("fanout=%d", fanout)] = dps
		}
		ns, allocs := tupleCodecStats(1_000_000)
		rep.TupleCodec = codecStat{NsPerOp: ns, AllocsPerOp: allocs}
		ns, allocs = packetizerStats(2_000_000)
		rep.Packetizer = codecStat{NsPerOp: ns, AllocsPerOp: allocs}
		rep.EmitRecvTPS, rep.EmitRecvAllocs = runEmitRecv(500_000, benchBatchSize)
		for _, sweep := range []struct {
			batch int
			ops   int
		}{
			{1, 100_000}, // one frame per tuple: ~50x the frame rate of batch 100
			{benchBatchSize, 500_000},
			{256, 500_000},
		} {
			key := fmt.Sprintf("batch=%d", sweep.batch)
			tps, allocs := runEmitRecv(sweep.ops, sweep.batch)
			rep.EmitRecvSweepTPS[key] = tps
			rep.EmitRecvSweepAll[key] = allocs
		}
	}
	b.ReportMetric(rep.RuleScale1to10k, "rule-scale-1-to-10k")
	b.ReportMetric(rep.EmitRecvTPS, "emitrecv-tuples/s")
	b.ReportMetric(rep.EmitRecvAllocs, "emitrecv-allocs/tuple")
	if path := os.Getenv("BENCH_JSON"); path != "" {
		blob, err := json.MarshalIndent(map[string]any{
			"benchmark": "BenchmarkDataplane",
			"report":    rep,
		}, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
