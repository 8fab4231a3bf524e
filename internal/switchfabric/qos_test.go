package switchfabric

import (
	"strings"
	"testing"
	"time"

	"typhoon/internal/openflow"
	"typhoon/internal/packet"
)

func meteredRule(in uint32, src, dst packet.Addr, outPort, meterID uint32) openflow.FlowMod {
	fm := unicastRule(in, src, dst, outPort)
	fm.Meter = meterID
	return fm
}

func TestMeterPolicesTraffic(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)

	// 1 KB/s with a 100-byte bucket: the first small frame passes, the
	// burst behind it is dropped (coarse-clock refill cannot keep up).
	if err := sw.ApplyMeterMod(openflow.MeterMod{
		Command: openflow.MeterAdd, MeterID: 7, RateBps: 1000, BurstBytes: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.ApplyFlowMod(meteredRule(p1.No(), a1, a2, p2.No(), 7)); err != nil {
		t.Fatal(err)
	}
	const total = 50
	for i := 0; i < total; i++ {
		for !p1.WriteFrame(frameFor(a2, a1, "metered-payload")) {
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for sw.MeterDrops() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if sw.MeterDrops() == 0 {
		t.Fatal("meter never dropped a frame")
	}
	if got := mustRead(t, p2); got == nil {
		t.Fatal("conformant head of the burst should pass")
	}
	c := sw.CountersSnapshot()
	if c.MeterDrops == 0 {
		t.Fatal("counters missing meter drops")
	}
	infos := sw.MeterStatsSnapshot()
	if len(infos) != 1 || infos[0].ID != 7 || infos[0].Drops == 0 {
		t.Fatalf("meter stats = %+v", infos)
	}
}

func TestMeterRetuneInPlaceKeepsCachesHot(t *testing.T) {
	sw, _ := newTestSwitch(t)
	if err := sw.ApplyMeterMod(openflow.MeterMod{
		Command: openflow.MeterAdd, MeterID: 3, RateBps: 1 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	gen := sw.gen.Load()
	// Identical re-add (reconciliation resends every meter each sync).
	sw.ApplyMeterMod(openflow.MeterMod{Command: openflow.MeterAdd, MeterID: 3, RateBps: 1 << 20})
	// Online rate reassignment by the bandwidth allocator.
	sw.ApplyMeterMod(openflow.MeterMod{Command: openflow.MeterModify, MeterID: 3, RateBps: 2 << 20})
	if sw.gen.Load() != gen {
		t.Fatal("meter retune bumped the flow-cache generation")
	}
	infos := sw.MeterStatsSnapshot()
	if len(infos) != 1 || infos[0].RateBps != 2<<20 {
		t.Fatalf("retune not applied: %+v", infos)
	}
	// Deleting does invalidate (rules referencing it change behavior).
	sw.ApplyMeterMod(openflow.MeterMod{Command: openflow.MeterDelete, MeterID: 3})
	if sw.gen.Load() == gen {
		t.Fatal("meter delete must rebuild the view")
	}
}

func TestUnmeteredRuleWithDanglingMeterPasses(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	// Rule references meter 99 which was never programmed: traffic passes.
	if err := sw.ApplyFlowMod(meteredRule(p1.No(), a1, a2, p2.No(), 99)); err != nil {
		t.Fatal(err)
	}
	p1.WriteFrame(frameFor(a2, a1, "dangling"))
	mustRead(t, p2)
	if sw.MeterDrops() != 0 {
		t.Fatal("dangling meter reference dropped traffic")
	}
}

func TestRuleMeterChangeReplacesRule(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	fm := meteredRule(p1.No(), a1, a2, p2.No(), 1)
	sw.ApplyFlowMod(fm)
	gen := sw.gen.Load()
	sw.ApplyFlowMod(fm) // identical re-add: no-op
	if sw.gen.Load() != gen {
		t.Fatal("identical re-add bumped generation")
	}
	fm.Meter = 2
	sw.ApplyFlowMod(fm) // meter changed: must replace and invalidate
	if sw.gen.Load() == gen {
		t.Fatal("meter change did not invalidate caches")
	}
}

// TestSelectGroupModifyRebuildsSlots is the regression test for select-group
// bucket selection across a modify: the modify path must rebuild the
// group's weight cycle (its slots), and the new weights must be honored
// exactly.
func TestSelectGroupModifyRebuildsSlots(t *testing.T) {
	sw, _ := newTestSwitch(t)
	src := packet.WorkerAddr(1, 1)
	d1, d2 := packet.WorkerAddr(1, 2), packet.WorkerAddr(1, 3)
	p1, _ := sw.AddPort("w1", src)
	q1, _ := sw.AddPort("w2", d1)
	q2, _ := sw.AddPort("w3", d2)
	mod := func(cmd openflow.GroupCommand, w1, w2 uint16) {
		if err := sw.ApplyGroupMod(openflow.GroupMod{
			Command: cmd, GroupID: 1, Type: openflow.GroupSelect,
			Buckets: []openflow.Bucket{
				{Weight: w1, Actions: []openflow.Action{openflow.SetDlDst(d1), openflow.Output(q1.No())}},
				{Weight: w2, Actions: []openflow.Action{openflow.SetDlDst(d2), openflow.Output(q2.No())}},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	mod(openflow.GroupAdd, 3, 1)
	sw.ApplyFlowMod(openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 100,
		Match:    openflow.Match{Fields: openflow.FieldInPort, InPort: p1.No()},
		Actions:  []openflow.Action{openflow.ToGroup(1)},
	})
	run := func(total int) (int, int) {
		for i := 0; i < total; i++ {
			for !p1.WriteFrame(frameFor(packet.Broadcast, src, "lb")) {
				time.Sleep(time.Millisecond)
			}
		}
		count := func(p *Port) int {
			n := 0
			for {
				frames, err := p.ReadBatch(nil, 64, 100*time.Millisecond)
				if err != nil || len(frames) == 0 {
					return n
				}
				n += len(frames)
			}
		}
		return count(q1), count(q2)
	}
	// Totals divide the slot-cycle length evenly so counts are exact, and
	// stay under the 256-frame egress ring so nothing drops pre-drain.
	n1, n2 := run(200)
	if n1 != 150 || n2 != 50 {
		t.Fatalf("initial weights not honored: %d vs %d", n1, n2)
	}
	mod(openflow.GroupModify, 1, 4)
	n1, n2 = run(300)
	if n1 != 60 || n2 != 240 {
		t.Fatalf("modified weights not honored: %d vs %d", n1, n2)
	}
}

// TestSelectGroupHugeWeightsBinarySearch pins the binary search over
// cumulative weights on a group whose weight cycle is 40 000 slots long.
func TestSelectGroupHugeWeightsBinarySearch(t *testing.T) {
	sw, _ := newTestSwitch(t)
	src := packet.WorkerAddr(1, 1)
	d1, d2 := packet.WorkerAddr(1, 2), packet.WorkerAddr(1, 3)
	p1, _ := sw.AddPort("w1", src)
	q1, _ := sw.AddPort("w2", d1)
	q2, _ := sw.AddPort("w3", d2)
	sw.ApplyGroupMod(openflow.GroupMod{
		Command: openflow.GroupAdd, GroupID: 1, Type: openflow.GroupSelect,
		Buckets: []openflow.Bucket{
			{Weight: 30000, Actions: []openflow.Action{openflow.SetDlDst(d1), openflow.Output(q1.No())}},
			{Weight: 10000, Actions: []openflow.Action{openflow.SetDlDst(d2), openflow.Output(q2.No())}},
		},
	})
	sw.ApplyFlowMod(openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 100,
		Match:    openflow.Match{Fields: openflow.FieldInPort, InPort: p1.No()},
		Actions:  []openflow.Action{openflow.ToGroup(1)},
	})
	const total = 200
	for i := 0; i < total; i++ {
		for !p1.WriteFrame(frameFor(packet.Broadcast, src, "lb")) {
			time.Sleep(time.Millisecond)
		}
	}
	count := func(p *Port) int {
		n := 0
		for {
			frames, err := p.ReadBatch(nil, 64, 100*time.Millisecond)
			if err != nil || len(frames) == 0 {
				return n
			}
			n += len(frames)
		}
	}
	n1, n2 := count(q1), count(q2)
	if n1+n2 != total {
		t.Fatalf("delivered %d+%d, want %d", n1, n2, total)
	}
	// The first 200 slots of a 40000-slot cycle all land in bucket 0.
	if n2 != 0 || n1 != total {
		t.Fatalf("binary-search selection wrong: %d vs %d", n1, n2)
	}
}

// TestPortHasOneEgressStructure: a port drains toward its device through
// the per-class queues when the switch runs egress queues, through one TX
// ring otherwise, never both.
func TestPortHasOneEgressStructure(t *testing.T) {
	for _, queues := range [][]QueueClass{nil, {{Name: "a", Weight: 2}, {Name: "b", Weight: 1}}} {
		sw := New("host-e", 1, Options{RingCapacity: 64, EgressQueues: queues})
		sw.Start()
		p, err := sw.AddPort("w1", packet.WorkerAddr(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		tun, err := sw.AddTunnelPort("tun0")
		if err != nil {
			t.Fatal(err)
		}
		for _, port := range []*Port{p, tun} {
			if (port.tx == nil) == (port.qd == nil) {
				t.Errorf("%d egress queues, port %s: tx set %v, qdisc set %v; want exactly one",
					len(queues), port.Name(), port.tx != nil, port.qd != nil)
			}
		}
		sw.Stop()
	}
}

// TestEgressQueuesDRR proves weighted fair queueing on a shared egress
// port: with both classes backlogged, the heavy class drains roughly its
// weight share and the light class is never starved.
func TestEgressQueuesDRR(t *testing.T) {
	sink := &recordingSink{}
	sw := New("host-q", 1, Options{
		RingCapacity:     4096,
		IdleScanInterval: 10 * time.Millisecond,
		EgressQueues: []QueueClass{
			{Name: "guaranteed", Weight: 4},
			{Name: "best-effort", Weight: 1},
		},
	})
	attachMaster(sw, sink)
	sw.Start()
	t.Cleanup(sw.Stop)

	gold, flood := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	dst := packet.WorkerAddr(1, 3)
	pg, _ := sw.AddPort("gold", gold)
	pf, _ := sw.AddPort("flood", flood)
	pd, _ := sw.AddPort("dst", dst)

	classed := func(in uint32, src packet.Addr, class uint32) openflow.FlowMod {
		return openflow.FlowMod{
			Command:  openflow.FlowAdd,
			Priority: 100,
			Match: openflow.Match{
				Fields: openflow.FieldInPort | openflow.FieldDlSrc,
				InPort: in, DlSrc: src,
			},
			Actions: []openflow.Action{openflow.SetQueue(class), openflow.Output(pd.No())},
		}
	}
	sw.ApplyFlowMod(classed(pg.No(), gold, 0))
	sw.ApplyFlowMod(classed(pf.No(), flood, 1))

	payload := strings.Repeat("x", 500)
	const perClass = 200
	for i := 0; i < perClass; i++ {
		for !pg.WriteFrame(frameFor(dst, gold, payload)) {
			time.Sleep(time.Millisecond)
		}
		for !pf.WriteFrame(frameFor(dst, flood, payload)) {
			time.Sleep(time.Millisecond)
		}
	}
	// Wait for the backlog to build in the egress class queues.
	deadline := time.Now().Add(2 * time.Second)
	for pd.QueueLen() < 2*perClass && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if pd.QueueLen() != 2*perClass {
		t.Fatalf("backlog %d, want %d", pd.QueueLen(), 2*perClass)
	}
	qs := pd.QueueStats()
	if len(qs) != 2 || qs[0].Class != "guaranteed" || qs[0].Depth != perClass {
		t.Fatalf("queue stats = %+v", qs)
	}

	// Drain the first 100 frames: DRR at 4:1 should hand the guaranteed
	// class about 80 of them, and must not starve best-effort.
	var goldN, floodN int
	for goldN+floodN < 100 {
		frames, err := pd.ReadBatch(nil, 10, time.Second)
		if err != nil || len(frames) == 0 {
			t.Fatalf("drain stalled at %d+%d (err=%v)", goldN, floodN, err)
		}
		for _, fr := range frames {
			_, src, _ := packet.PeekAddrs(fr)
			switch src {
			case gold:
				goldN++
			case flood:
				floodN++
			}
		}
	}
	if goldN < 2*floodN {
		t.Fatalf("weights not honored in drain order: gold=%d flood=%d", goldN, floodN)
	}
	if floodN == 0 {
		t.Fatal("best-effort class starved")
	}
}

// TestEgressQueueDefaultClassAndClamp: unclassified traffic rides class 0;
// an out-of-range set_queue clamps to the last class instead of dropping.
func TestEgressQueueDefaultClassAndClamp(t *testing.T) {
	sink := &recordingSink{}
	sw := New("host-q2", 1, Options{
		RingCapacity: 256,
		EgressQueues: []QueueClass{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}},
	})
	attachMaster(sw, sink)
	sw.Start()
	t.Cleanup(sw.Stop)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	sw.ApplyFlowMod(unicastRule(p1.No(), a1, a2, p2.No())) // no set_queue
	p1.WriteFrame(frameFor(a2, a1, "plain"))
	mustRead(t, p2)
	qs := p2.QueueStats()
	if qs[0].Enqueued != 1 {
		t.Fatalf("unclassified frame not on class 0: %+v", qs)
	}
	fm := unicastRule(p1.No(), a1, a2, p2.No())
	fm.Actions = []openflow.Action{openflow.SetQueue(9), openflow.Output(p2.No())}
	sw.ApplyFlowMod(fm)
	p1.WriteFrame(frameFor(a2, a1, "clamped"))
	mustRead(t, p2)
	qs = p2.QueueStats()
	if qs[1].Enqueued != 1 {
		t.Fatalf("out-of-range class not clamped to last: %+v", qs)
	}
}

// TestDRROversizedBatchFrames pins the deficit accounting for multi-tuple
// batch frames that exceed a class quantum: an 8 KiB frame is four times the
// 2 KiB quantum unit, so a weight-1 class owes several rounds of credit per
// frame. The discipline must still honor the byte-weighted share and must
// never starve a class behind another class's oversized batch frames.
func TestDRROversizedBatchFrames(t *testing.T) {
	// classFrame tags byte 0 with the class so drained frames can be
	// attributed; the rest stands in for packed tuple records.
	classFrame := func(class byte, size int) []byte {
		fr := make([]byte, size)
		fr[0] = class
		return fr
	}

	t.Run("uniform-oversized", func(t *testing.T) {
		q := newQdisc([]QueueClass{{Name: "heavy", Weight: 4}, {Name: "light", Weight: 1}}, 256)
		const perClass = 60
		for i := 0; i < perClass; i++ {
			if !q.enqueue(0, classFrame(0, 8<<10)) || !q.enqueue(1, classFrame(1, 8<<10)) {
				t.Fatal("enqueue refused with ring capacity to spare")
			}
		}
		// Drain 50 frames in small reads: with equal 8 KiB frames the 4:1
		// byte weights become a 4:1 frame split. Both frame sizes exceed the
		// light class's 2 KiB quantum, so it goes several rounds in debt per
		// frame — but must keep earning credit rather than starve.
		var heavyN, lightN int
		for heavyN+lightN < 50 {
			frames, err := q.readBatch(nil, 7, time.Second)
			if err != nil || len(frames) == 0 {
				t.Fatalf("drain stalled at %d+%d (err=%v)", heavyN, lightN, err)
			}
			for _, fr := range frames {
				if fr[0] == 0 {
					heavyN++
				} else {
					lightN++
				}
			}
		}
		if lightN == 0 {
			t.Fatal("light class starved behind oversized batch frames")
		}
		if heavyN < 2*lightN {
			t.Fatalf("weights not honored: heavy=%d light=%d, want ~4:1", heavyN, lightN)
		}
	})

	t.Run("byte-accounted-mixed-sizes", func(t *testing.T) {
		// Heavy sends 8 KiB batch frames, light sends 512 B singles. Byte
		// fairness at 4:1 weights means the FRAME split inverts to ~1:4 —
		// one oversized batch frame buys the other class sixteen small
		// frames of catch-up credit, of which it can spend four per round.
		q := newQdisc([]QueueClass{{Name: "heavy", Weight: 4}, {Name: "light", Weight: 1}}, 1024)
		for i := 0; i < 40; i++ {
			if !q.enqueue(0, classFrame(0, 8<<10)) {
				t.Fatal("heavy enqueue refused")
			}
		}
		for i := 0; i < 640; i++ {
			if !q.enqueue(1, classFrame(1, 512)) {
				t.Fatal("light enqueue refused")
			}
		}
		var heavyN, lightN, heavyBytes, lightBytes int
		for heavyN+lightN < 100 {
			frames, err := q.readBatch(nil, 13, time.Second)
			if err != nil || len(frames) == 0 {
				t.Fatalf("drain stalled at %d+%d (err=%v)", heavyN, lightN, err)
			}
			for _, fr := range frames {
				if fr[0] == 0 {
					heavyN++
					heavyBytes += len(fr)
				} else {
					lightN++
					lightBytes += len(fr)
				}
			}
		}
		if heavyN == 0 || lightN == 0 {
			t.Fatalf("a class starved: heavy=%d light=%d", heavyN, lightN)
		}
		// Byte split should track weights (4:1), not frame counts.
		if heavyBytes < 2*lightBytes {
			t.Fatalf("byte accounting lost: heavy=%dB light=%dB, want ~4:1", heavyBytes, lightBytes)
		}
		if lightN < heavyN {
			t.Fatalf("small frames should outnumber oversized ones: heavy=%d light=%d", heavyN, lightN)
		}
	})
}
