package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"time"

	"typhoon/internal/ack"
	"typhoon/internal/coordinator"
	"typhoon/internal/core"
	"typhoon/internal/openflow"
	"typhoon/internal/packet"
	"typhoon/internal/ring"
	"typhoon/internal/storm"
	"typhoon/internal/switchfabric"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// prober runs the per-layer probes: each times a loop of calls into one
// layer's exported functions inside a span, over inputs of the workload's
// tuple shape made from the run's seed. Unless a probe says otherwise it
// is one goroutine, so span time is the calls' own cost.
type prober struct {
	tr     *tracer
	parent int // span the probes hang under
	g      *generator
	w      *workload
	shrink int // op counts are divided by this (smoke runs)
	out    map[string]float64
}

// ops scales a probe's op count. Full-size counts are all at least
// 10 000; a smoke run keeps at least 500.
func (p *prober) ops(n int) int {
	n /= p.shrink
	if n < 500 {
		n = 500
	}
	return n
}

// timed runs fn inside a span named after the metric, with build (if any)
// in a child span of its own, and records span time per op.
func (p *prober) timed(metric string, ops int, build func(), fn func()) {
	id := p.tr.begin(metric, p.parent)
	if build != nil {
		b := p.tr.begin(metric+":build", id)
		build()
		p.tr.end(b)
	}
	r := p.tr.begin(metric+":run", id)
	fn()
	d := p.tr.end(r)
	p.tr.end(id)
	p.out[metric] = float64(d.Nanoseconds()) / float64(ops)
}

// shapeTuples builds n tuples of the given payload size in the source's
// layout; keyed adds the key fields.
func (p *prober) shapeTuples(n, payload int, keyed bool) []tuple.Tuple {
	g := newGenerator(p.g.seed, payload)
	out := make([]tuple.Tuple, n)
	for i := range out {
		seq := int64(i)
		buf := make([]byte, len(g.payload))
		g.fill(buf, seq)
		vals := []tuple.Value{tuple.Int(seq), tuple.Int(time.Now().UnixNano()), tuple.Bytes(buf)}
		if keyed {
			vals = append(vals, tuple.String(g.keys[g.keyIndex(seq)]), tuple.Int(seq))
		}
		out[i] = tuple.New(vals...)
	}
	return out
}

func (p *prober) workloadTuples(n int) []tuple.Tuple {
	return p.shapeTuples(n, p.w.payload, p.w.keyed)
}

const probeSet = 1024 // distinct tuples a probe cycles through

func (p *prober) runAll() {
	p.tupleCodec("small", 16)
	p.tupleCodec("large", 512)
	p.packetizer()
	p.ring()
	p.switchForward()
	p.switchReplicate()
	p.switchFlowMod()
	p.emitRecv()
	p.tunnelEmitRecv()
	p.router()
	p.acker()
	p.stormEmitRecv()
	p.flowModCodec()
	p.coordinator()
}

func (p *prober) tupleCodec(label string, payload int) {
	tuples := p.shapeTuples(probeSet, payload, false)
	n := p.ops(400000)
	var buf []byte
	p.timed("tuple.encode_ns_"+label, n, nil, func() {
		for i := 0; i < n; i++ {
			buf = tuple.AppendEncode(buf[:0], tuples[i%probeSet])
		}
	})
	// Decode runs over the payload layout of a 100-tuple data frame.
	const perFrame = 100
	var run []byte
	for _, t := range tuples[:perFrame] {
		enc := tuple.Encode(t)
		run = binary.LittleEndian.AppendUint32(run, uint32(len(enc)))
		run = append(run, enc...)
	}
	var arena tuple.Arena
	var dst []tuple.Tuple
	frames := n / perFrame
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p.timed("tuple.decode_ns_"+label, frames*perFrame, nil, func() {
		for i := 0; i < frames; i++ {
			var err error
			if dst, err = tuple.DecodeBatch(run, dst[:0], &arena); err != nil {
				panic(fmt.Sprintf("bench: probe decode: %v", err))
			}
		}
	})
	runtime.ReadMemStats(&m1)
	if label == "small" {
		p.out["tuple.decode_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(frames*perFrame)
	}
}

func (p *prober) packetizer() {
	src, dst := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	tuples := p.workloadTuples(probeSet)
	enc := make([][]byte, len(tuples))
	for i, t := range tuples {
		enc[i] = tuple.Encode(t)
	}
	n := p.ops(400000)
	pk := packet.NewPacketizer(src, 0)
	recycle := func(frames [][]byte) {
		for _, f := range frames {
			packet.PutFrameBuf(f)
		}
	}
	p.timed("packet.packetize_ns", n, nil, func() {
		for i := 0; i < n; i++ {
			recycle(pk.Add(dst, enc[i%probeSet]))
			if i%worker.DefaultBatchSize == worker.DefaultBatchSize-1 {
				recycle(pk.FlushAll())
			}
		}
	})
	recycle(pk.FlushAll())
	// Frames for the receive side: what a batch of 100 packetizes into,
	// copied out of the pool so feeding them repeatedly is safe.
	var frames [][]byte
	keep := func(fs [][]byte) {
		for _, f := range fs {
			frames = append(frames, append([]byte(nil), f...))
			packet.PutFrameBuf(f)
		}
	}
	perSet := 0
	for i := 0; i < worker.DefaultBatchSize; i++ {
		keep(pk.Add(dst, enc[i]))
		perSet++
	}
	keep(pk.FlushAll())
	dp := packet.NewDepacketizer()
	sets := n / perSet
	p.timed("packet.depacketize_ns", sets*perSet, nil, func() {
		for i := 0; i < sets; i++ {
			for _, f := range frames {
				if _, err := dp.Feed(f); err != nil {
					panic(fmt.Sprintf("bench: probe depacketize: %v", err))
				}
			}
		}
	})
}

func (p *prober) ring() {
	frame := make([]byte, 64)
	n := p.ops(400000)
	r := ring.New(8192)
	var dst [][]byte
	p.timed("ring.enq_deq_ns", n, nil, func() {
		for done := 0; done < n; done += 64 {
			for i := 0; i < 64; i++ {
				r.TryEnqueue(frame)
			}
			dst, _ = r.DequeueBatch(dst[:0], 64, 0)
		}
	})
	// Two goroutines: the hand-off cost includes the wake-up.
	h := ring.New(8192)
	p.timed("ring.handoff_ns", n, nil, func() {
		go func() {
			for i := 0; i < n; i++ {
				_ = h.Enqueue(frame)
			}
		}()
		for got := 0; got < n; {
			dst, _ = h.DequeueBatch(dst[:0], 64, time.Second)
			got += len(dst)
		}
	})
}

// drain recycles what a port delivers until the port closes, like a
// receiving worker would.
func drain(port *switchfabric.Port, done chan<- struct{}) {
	var scratch [][]byte
	for {
		frames, err := port.ReadBatch(scratch[:0], 256, 50*time.Millisecond)
		if err != nil {
			close(done)
			return
		}
		scratch = frames
		for _, f := range frames {
			packet.PutFrameBuf(f)
		}
	}
}

// pushFrames writes frame n times into port in and waits until the switch
// has taken them all off the ring.
func pushFrames(sw *switchfabric.Switch, in *switchfabric.Port, frame []byte, n int) {
	for i := 0; i < n; i++ {
		for !in.WriteFrame(frame) {
			time.Sleep(10 * time.Microsecond)
		}
	}
	waitFor(10*time.Second, func() bool {
		for _, ps := range sw.PortStatsSnapshot() {
			if ps.PortNo == in.No() {
				return ps.RxPackets >= uint64(n)
			}
		}
		return false
	})
}

// frameOf packs tuples into one exact-capacity frame (never pooled, so it
// can be written again and again).
func frameOf(dst, src packet.Addr, tuples []tuple.Tuple) []byte {
	enc := make([][]byte, len(tuples))
	for i, t := range tuples {
		enc[i] = tuple.Encode(t)
	}
	return packet.EncodeTuples(dst, src, enc)
}

func unicastRule(in *switchfabric.Port, dst packet.Addr, acts ...openflow.Action) openflow.FlowMod {
	return openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: in.No(), DlDst: dst, EtherType: packet.EtherType,
		},
		Actions: acts,
	}
}

// switchForward times cached unicast forwarding per frame: switch pump
// and drain goroutines run beside the writer, as they do in a cluster.
func (p *prober) switchForward() {
	tuples := p.workloadTuples(worker.DefaultBatchSize)
	// A batch frame holds what fits the payload budget.
	perFrame := len(tuples)
	if fit := packet.DefaultMaxPayload / (tuple.EncodedSize(tuples[0]) + 4); fit < perFrame {
		perFrame = fit
	}
	for _, c := range []struct {
		metric string
		tuples []tuple.Tuple
		ops    int
	}{
		{"switchfabric.fwd_ns_min", tuples[:1], p.ops(300000)},
		{"switchfabric.fwd_ns_batch", tuples[:perFrame], p.ops(100000)},
	} {
		var sw *switchfabric.Switch
		var in *switchfabric.Port
		var frame []byte
		done := make(chan struct{})
		p.timed(c.metric, c.ops, func() {
			sw = switchfabric.New("probe", 1, switchfabric.Options{RingCapacity: 8192})
			sw.Start()
			a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
			in, _ = sw.AddPort("w1", a1)
			out, _ := sw.AddPort("w2", a2)
			_ = sw.ApplyFlowMod(unicastRule(in, a2, openflow.Output(out.No())))
			frame = frameOf(a2, a1, c.tuples)
			go drain(out, done)
		}, func() { pushFrames(sw, in, frame, c.ops) })
		sw.Stop()
		<-done
	}
}

// switchReplicate times GroupAll replication of a 512 B frame to four
// local ports.
func (p *prober) switchReplicate() {
	const fanout = 4
	n := p.ops(100000)
	var sw *switchfabric.Switch
	var in *switchfabric.Port
	var frame []byte
	done := make([]chan struct{}, fanout)
	p.timed("switchfabric.replicate4_ns", n, func() {
		sw = switchfabric.New("probe", 1, switchfabric.Options{RingCapacity: 8192})
		sw.Start()
		a1 := packet.WorkerAddr(1, 1)
		in, _ = sw.AddPort("w1", a1)
		var buckets []openflow.Bucket
		for i := 0; i < fanout; i++ {
			out, _ := sw.AddPort("sink", packet.WorkerAddr(1, uint32(2+i)))
			buckets = append(buckets, openflow.Bucket{Weight: 1, Actions: []openflow.Action{openflow.Output(out.No())}})
			done[i] = make(chan struct{})
			go drain(out, done[i])
		}
		_ = sw.ApplyGroupMod(openflow.GroupMod{Command: openflow.GroupAdd, GroupID: 1, Type: openflow.GroupAll, Buckets: buckets})
		_ = sw.ApplyFlowMod(unicastRule(in, packet.Broadcast, openflow.ToGroup(1)))
		frame = frameOf(packet.Broadcast, a1, p.shapeTuples(1, 512, false))
	}, func() { pushFrames(sw, in, frame, n) })
	sw.Stop()
	for _, d := range done {
		<-d
	}
}

// switchFlowMod times one rule add plus its strict delete beside 1 000
// resident rules — the churn a rescale puts on a loaded table.
func (p *prober) switchFlowMod() {
	n := p.ops(20000)
	var sw *switchfabric.Switch
	var in *switchfabric.Port
	p.timed("switchfabric.flowmod_ns", n, func() {
		sw = switchfabric.New("probe", 1)
		sw.Start()
		in, _ = sw.AddPort("w1", packet.WorkerAddr(1, 1))
		for i := 0; i < 1000; i++ {
			_ = sw.ApplyFlowMod(unicastRule(in, packet.WorkerAddr(7, uint32(1000+i)), openflow.Output(in.No())))
		}
	}, func() {
		for i := 0; i < n; i++ {
			fm := unicastRule(in, packet.WorkerAddr(8, uint32(i)), openflow.Output(in.No()))
			_ = sw.ApplyFlowMod(fm)
			fm.Command = openflow.FlowDeleteStrict
			_ = sw.ApplyFlowMod(fm)
		}
	})
	sw.Stop()
}

// pingPong sends the tuples in chunks from one transport and receives
// each chunk on the other before sending the next, on one goroutine: the
// time is the send and receive paths laid end to end, and nothing is lost
// because a chunk fits the rings.
func pingPong(src, dst worker.Transport, to topology.WorkerID, tuples []tuple.Tuple, n int) {
	const chunk = 4096
	d := worker.Destination{Workers: []topology.WorkerID{to}}
	for sent := 0; sent < n; {
		c := chunk
		if n-sent < c {
			c = n - sent
		}
		for i := 0; i < c; i++ {
			_ = src.Send(d, tuples[(sent+i)%len(tuples)])
		}
		_ = src.Flush()
		sent += c
		for got, idle := 0, 0; got < c && idle < 8; {
			out, err := dst.Recv(256, 250*time.Millisecond)
			if err != nil {
				return
			}
			if len(out) == 0 {
				idle++ // two seconds of silence: the tail was dropped
				continue
			}
			idle = 0
			got += len(out)
		}
	}
}

// emitRecv is two SDN transports on one switch — the old headline, here
// one rung: codec, packetizer, ring, cached forwarding and arena decode.
func (p *prober) emitRecv() {
	n := p.ops(400000)
	tuples := p.workloadTuples(probeSet)
	var sw *switchfabric.Switch
	var src, dst *worker.SDNTransport
	p.timed("worker.emit_recv_ns", n, func() {
		sw = switchfabric.New("probe", 1, switchfabric.Options{RingCapacity: 8192})
		sw.Start()
		a2 := packet.WorkerAddr(1, 2)
		p1, _ := sw.AddPort("w1", packet.WorkerAddr(1, 1))
		p2, _ := sw.AddPort("w2", a2)
		_ = sw.ApplyFlowMod(unicastRule(p1, a2, openflow.Output(p2.No())))
		src = worker.NewSDNTransport(1, 1, p1, worker.SDNTransportConfig{})
		dst = worker.NewSDNTransport(1, 2, p2, worker.SDNTransportConfig{})
	}, func() { pingPong(src, dst, 2, tuples, n) })
	sw.Stop()
}

// tunnelEmitRecv is the same pair on the two switches of a real two-host
// cluster, so every frame also crosses the TCP tunnel. Minus
// worker.emit_recv_ns it is the tunnel's cost per tuple.
func (p *prober) tunnelEmitRecv() {
	n := p.ops(200000)
	tuples := p.workloadTuples(probeSet)
	var c *core.Cluster
	var src, dst *worker.SDNTransport
	p.timed("core.tunnel_emit_recv_ns", n, func() {
		var err error
		c, err = core.NewCluster(core.Config{Hosts: []string{"h1", "h2"}, TraceEvery: -1})
		if err != nil {
			panic(fmt.Sprintf("bench: probe cluster: %v", err))
		}
		const app = 9 // no topology uses it, so the controller leaves the rules alone
		s1, s2 := c.Host("h1").Switch, c.Host("h2").Switch
		a2 := packet.WorkerAddr(app, 2)
		p1, _ := s1.AddPort("probe1", packet.WorkerAddr(app, 1))
		p2, _ := s2.AddPort("probe2", a2)
		_ = s1.ApplyFlowMod(unicastRule(p1, a2, openflow.SetTunnelDst("h2"), openflow.Output(tunnelPortOf(s1).No())))
		_ = s2.ApplyFlowMod(unicastRule(tunnelPortOf(s2), a2, openflow.Output(p2.No())))
		src = worker.NewSDNTransport(app, 1, p1, worker.SDNTransportConfig{})
		dst = worker.NewSDNTransport(app, 2, p2, worker.SDNTransportConfig{})
	}, func() { pingPong(src, dst, 2, tuples, n) })
	c.Stop()
}

func tunnelPortOf(sw *switchfabric.Switch) *switchfabric.Port {
	for _, pi := range sw.Ports() {
		if p := sw.Port(pi.No); p != nil && p.IsTunnel() {
			return p
		}
	}
	panic("bench: switch has no tunnel port")
}

func (p *prober) router() {
	n := p.ops(400000)
	tuples := p.shapeTuples(probeSet, p.w.payload, true)
	hops := []topology.WorkerID{2, 3, 4, 5}
	for _, c := range []struct {
		metric string
		edge   topology.EdgeSpec
	}{
		{"worker.route_ns_fields", topology.EdgeSpec{From: "a", To: "b", Policy: topology.Fields, HashFields: []int{fKey}}},
		{"worker.route_ns_shuffle", topology.EdgeSpec{From: "a", To: "b", Policy: topology.Shuffle}},
	} {
		rt := worker.NewRouter([]topology.Route{{Edge: c.edge, NextHops: hops}})
		p.timed(c.metric, n, nil, func() {
			for i := 0; i < n; i++ {
				rt.Route(tuples[i%probeSet])
			}
		})
	}
}

// discard is an Emitter that drops what a component emits.
type discard struct{}

func (discard) Emit(...tuple.Value)                   {}
func (discard) EmitOn(tuple.StreamID, ...tuple.Value) {}

// acker times the XOR bookkeeping of one tuple tree: INIT then the ACK
// that completes it.
func (p *prober) acker() {
	n := p.ops(200000)
	a := ack.NewAcker()
	ctx := worker.NewContext(discard{}, 1, ack.NodeName, 0, nil)
	p.timed("ack.execute_ns", n, nil, func() {
		for i := 0; i < n; i++ {
			root := int64(i + 1)
			_ = a.Execute(ctx, tuple.OnStream(tuple.AckStream, tuple.Int(0), tuple.Int(root), tuple.Int(root), tuple.Int(7)))
			_ = a.Execute(ctx, tuple.OnStream(tuple.AckStream, tuple.Int(1), tuple.Int(root), tuple.Int(root), tuple.Int(0)))
		}
	})
}

// stormEmitRecv is the baseline's rung: the same ping-pong over the
// Storm-style per-destination TCP transport.
func (p *prober) stormEmitRecv() {
	n := p.ops(200000)
	tuples := p.workloadTuples(probeSet)
	var src, dst *storm.TCPTransport
	p.timed("storm.emit_recv_ns", n, func() {
		net := storm.NewNetwork()
		var err error
		if src, err = storm.Listen(1, net); err == nil {
			dst, err = storm.Listen(2, net)
		}
		if err != nil {
			panic(fmt.Sprintf("bench: probe storm transport: %v", err))
		}
	}, func() { pingPong(src, dst, 2, tuples, n) })
	_ = src.Close()
	_ = dst.Close()
}

func (p *prober) flowModCodec() {
	n := p.ops(200000)
	fm := openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100, Cookie: 42,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: 3, DlDst: packet.WorkerAddr(1, 2), EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.SetTunnelDst("h2"), openflow.Output(1)},
	}
	p.timed("openflow.flowmod_codec_ns", n, nil, func() {
		for i := 0; i < n; i++ {
			if _, _, err := openflow.Decode(openflow.Encode(uint32(i), fm)); err != nil {
				panic(fmt.Sprintf("bench: probe openflow codec: %v", err))
			}
		}
	})
}

func (p *prober) coordinator() {
	n := p.ops(100000)
	st := coordinator.NewStore()
	defer st.Close()
	data := []byte("0123456789abcdef")
	p.timed("coordinator.put_get_ns", n, nil, func() {
		for i := 0; i < n; i++ {
			_, _ = st.Put("/bench/probe", data)
			_, _, _ = st.Get("/bench/probe")
		}
	})
	// Put → watcher goroutine: the latency a control-plane reaction starts
	// with. Each Put carries its send time; one is in flight at a time.
	events, cancel, err := st.Watch("/bench/watch")
	if err != nil {
		panic(fmt.Sprintf("bench: probe watch: %v", err))
	}
	defer cancel()
	m := p.ops(20000)
	lat := make([]float64, 0, m)
	seen := make(chan float64)
	go func() {
		for ev := range events {
			seen <- float64(time.Now().UnixNano()-parseInt(ev.Data)) / 1e3
		}
	}()
	id := p.tr.begin("coordinator.watch_fanout_us", p.parent)
	for i := 0; i < m; i++ {
		_, _ = st.Put("/bench/watch/k", appendInt(nil, time.Now().UnixNano()))
		lat = append(lat, <-seen)
	}
	p.tr.end(id)
	sort.Float64s(lat)
	p.out["coordinator.watch_fanout_us"] = quantile(lat, 0.5)
}
