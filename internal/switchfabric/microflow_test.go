package switchfabric

import (
	"math/rand"
	"testing"
	"time"

	"typhoon/internal/openflow"
	"typhoon/internal/packet"
)

// expectFrame asserts that exactly one frame arrives at p and returns it.
func expectFrame(t *testing.T, p *Port) []byte {
	t.Helper()
	return mustRead(t, p)
}

// expectNoFrame asserts that nothing arrives at p within a grace window.
func expectNoFrame(t *testing.T, p *Port) {
	t.Helper()
	frames, err := p.ReadBatch(nil, 1, 150*time.Millisecond)
	if err == nil && len(frames) > 0 {
		t.Fatalf("unexpected frame forwarded: %d bytes", len(frames[0]))
	}
}

// noMatch reads the switch's table-miss drops in the form waitCounter polls.
func noMatch(sw *Switch) func() uint64 {
	return func() uint64 { return sw.CountersSnapshot().NoMatch }
}

// waitCounter polls fn until it reaches at least want.
func waitCounter(t *testing.T, fn func() uint64, want uint64, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for fn() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, fn(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// warm sends one frame through the installed rule and reads it at out,
// populating the ingress port's microflow cache with the rule.
func warm(t *testing.T, in, out *Port, dst, src packet.Addr) {
	t.Helper()
	if !in.WriteFrame(frameFor(dst, src, "warm")) {
		t.Fatal("WriteFrame failed")
	}
	expectFrame(t, out)
}

func TestMicroflowNoStaleAfterFlowDelete(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	fm := unicastRule(p1.No(), a1, a2, p2.No())
	if err := sw.ApplyFlowMod(fm); err != nil {
		t.Fatal(err)
	}
	warm(t, p1, p2, a2, a1)

	fm.Command = openflow.FlowDeleteStrict
	if err := sw.ApplyFlowMod(fm); err != nil {
		t.Fatal(err)
	}
	drops := sw.CountersSnapshot().NoMatch
	if !p1.WriteFrame(frameFor(a2, a1, "stale?")) {
		t.Fatal("WriteFrame failed")
	}
	waitCounter(t, noMatch(sw), drops+1, "NoMatch")
	expectNoFrame(t, p2)
}

func TestMicroflowNoStaleAfterFlowModify(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	p3, _ := sw.AddPort("w3", packet.WorkerAddr(1, 3))
	fm := unicastRule(p1.No(), a1, a2, p2.No())
	if err := sw.ApplyFlowMod(fm); err != nil {
		t.Fatal(err)
	}
	warm(t, p1, p2, a2, a1)

	// Redirect the cached rule's actions to p3; the cached entry itself
	// stays valid (the rule object is shared) but must forward to p3 only.
	if err := sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowModify,
		Match:   fm.Match,
		Actions: []openflow.Action{openflow.Output(p3.No())},
	}); err != nil {
		t.Fatal(err)
	}
	if !p1.WriteFrame(frameFor(a2, a1, "redirected")) {
		t.Fatal("WriteFrame failed")
	}
	expectFrame(t, p3)
	expectNoFrame(t, p2)
}

func TestMicroflowNoStaleAfterGroupMod(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	p3, _ := sw.AddPort("w3", packet.WorkerAddr(1, 3))
	const gid = 7
	if err := sw.ApplyGroupMod(openflow.GroupMod{
		Command: openflow.GroupAdd, GroupID: gid, Type: openflow.GroupSelect,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output(p2.No())}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowAdd, Priority: 100,
		Match: openflow.Match{
			Fields: openflow.FieldInPort | openflow.FieldDlDst | openflow.FieldEtherType,
			InPort: p1.No(), DlDst: a2, EtherType: packet.EtherType,
		},
		Actions: []openflow.Action{openflow.ToGroup(gid)},
	}); err != nil {
		t.Fatal(err)
	}
	warm(t, p1, p2, a2, a1)

	if err := sw.ApplyGroupMod(openflow.GroupMod{
		Command: openflow.GroupModify, GroupID: gid, Type: openflow.GroupSelect,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output(p3.No())}}},
	}); err != nil {
		t.Fatal(err)
	}
	if !p1.WriteFrame(frameFor(a2, a1, "regrouped")) {
		t.Fatal("WriteFrame failed")
	}
	expectFrame(t, p3)
	expectNoFrame(t, p2)
}

func TestMicroflowNoStaleAfterWipeFlows(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	if err := sw.ApplyFlowMod(unicastRule(p1.No(), a1, a2, p2.No())); err != nil {
		t.Fatal(err)
	}
	warm(t, p1, p2, a2, a1)

	if n := sw.WipeFlows(); n != 1 {
		t.Fatalf("WipeFlows removed %d rules, want 1", n)
	}
	drops := sw.CountersSnapshot().NoMatch
	if !p1.WriteFrame(frameFor(a2, a1, "wiped")) {
		t.Fatal("WriteFrame failed")
	}
	waitCounter(t, noMatch(sw), drops+1, "NoMatch")
	expectNoFrame(t, p2)
}

func TestMicroflowNoStaleAfterIdleExpiry(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	fm := unicastRule(p1.No(), a1, a2, p2.No())
	fm.IdleTimeoutMs = 30
	if err := sw.ApplyFlowMod(fm); err != nil {
		t.Fatal(err)
	}
	warm(t, p1, p2, a2, a1)

	deadline := time.Now().Add(2 * time.Second)
	for sw.RuleCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rule never idle-expired; RuleCount = %d", sw.RuleCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	drops := sw.CountersSnapshot().NoMatch
	if !p1.WriteFrame(frameFor(a2, a1, "expired")) {
		t.Fatal("WriteFrame failed")
	}
	waitCounter(t, noMatch(sw), drops+1, "NoMatch")
	expectNoFrame(t, p2)
}

func TestMicroflowRuleChurnLoop(t *testing.T) {
	// Repeated add/delete churn with traffic in between: forwarding must
	// exactly track the installed state every round.
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	fm := unicastRule(p1.No(), a1, a2, p2.No())
	for round := 0; round < 10; round++ {
		fm.Command = openflow.FlowAdd
		if err := sw.ApplyFlowMod(fm); err != nil {
			t.Fatal(err)
		}
		warm(t, p1, p2, a2, a1)
		fm.Command = openflow.FlowDeleteStrict
		if err := sw.ApplyFlowMod(fm); err != nil {
			t.Fatal(err)
		}
		drops := sw.CountersSnapshot().NoMatch
		if !p1.WriteFrame(frameFor(a2, a1, "churn")) {
			t.Fatal("WriteFrame failed")
		}
		waitCounter(t, noMatch(sw), drops+1, "NoMatch")
	}
	expectNoFrame(t, p2)
}

func TestMicroflowHitMissAccounting(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a1, a2 := packet.WorkerAddr(1, 1), packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", a1)
	p2, _ := sw.AddPort("w2", a2)
	if err := sw.ApplyFlowMod(unicastRule(p1.No(), a1, a2, p2.No())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		warm(t, p1, p2, a2, a1)
	}
	c := sw.CountersSnapshot()
	if c.MicroflowMisses < 1 {
		t.Fatalf("MicroflowMisses = %d, want >= 1", c.MicroflowMisses)
	}
	if c.MicroflowHits < 1 {
		t.Fatalf("MicroflowHits = %d, want >= 1 after repeated traffic", c.MicroflowHits)
	}
	if c.Upcalls != c.MicroflowMisses {
		t.Fatalf("Upcalls = %d, want MicroflowMisses %d", c.Upcalls, c.MicroflowMisses)
	}
}

// dstRule matches on destination only: every source talking to dst shares
// it, and each (source, dst) pair is its own microflow.
func dstRule(dst packet.Addr, outPort uint32, priority uint16) openflow.FlowMod {
	return openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: priority,
		Match:    openflow.Match{Fields: openflow.FieldDlDst, DlDst: dst},
		Actions:  []openflow.Action{openflow.Output(outPort)},
	}
}

// scatter writes n frames to in, one per distinct source address, all
// destined for dst, and asserts each one arrives on out. Every frame is a
// microflow miss followed by an insert.
func scatter(t *testing.T, in, out *Port, dst packet.Addr, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		src := packet.WorkerAddr(9, uint32(i+1))
		if !in.WriteFrame(frameFor(dst, src, "scatter")) {
			t.Fatalf("WriteFrame %d failed", i)
		}
		f, err := packet.Decode(mustRead(t, out))
		if err != nil || f.Src != src || f.Dst != dst {
			t.Fatalf("frame %d: decoded %+v err=%v", i, f, err)
		}
	}
}

// TestMicroflowFollowsReplacedRoute replaces a destination route after rotating
// sources warmed the cache with it: frames must follow the new rule, not a
// cached entry for the old one.
func TestMicroflowFollowsReplacedRoute(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a2 := packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", packet.WorkerAddr(1, 1))
	p2, _ := sw.AddPort("w2", a2)
	p3, _ := sw.AddPort("w3", packet.WorkerAddr(1, 3))

	if err := sw.ApplyFlowMod(dstRule(a2, p2.No(), 100)); err != nil {
		t.Fatal(err)
	}
	scatter(t, p1, p2, a2, 5) // warm five microflows

	// Replace the route: delete the old rule, install one toward p3.
	if err := sw.ApplyFlowMod(openflow.FlowMod{
		Command: openflow.FlowDeleteStrict, Priority: 100,
		Match: openflow.Match{Fields: openflow.FieldDlDst, DlDst: a2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.ApplyFlowMod(dstRule(a2, p3.No(), 100)); err != nil {
		t.Fatal(err)
	}
	scatter(t, p1, p3, a2, 5) // the same sources: fresh rule, not stale entries
}

// TestMicroflowOverlapPriority installs a broad low-priority dl_dst rule and
// a narrow high-priority (dl_src, dl_dst) override. Rotating broad sources
// interleaved with the override source must never capture each other's
// decision through the cache.
func TestMicroflowOverlapPriority(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a2 := packet.WorkerAddr(1, 2)
	special := packet.WorkerAddr(9, 500)
	p1, _ := sw.AddPort("w1", packet.WorkerAddr(1, 1))
	p2, _ := sw.AddPort("w2", a2)
	p3, _ := sw.AddPort("w3", packet.WorkerAddr(1, 3))

	if err := sw.ApplyFlowMod(dstRule(a2, p2.No(), 100)); err != nil {
		t.Fatal(err)
	}
	if err := sw.ApplyFlowMod(openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Priority: 200,
		Match: openflow.Match{
			Fields: openflow.FieldDlSrc | openflow.FieldDlDst,
			DlSrc:  special, DlDst: a2,
		},
		Actions: []openflow.Action{openflow.Output(p3.No())},
	}); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 3; round++ {
		// Broad traffic from rotating sources lands on p2...
		src := packet.WorkerAddr(9, uint32(100+round))
		if !p1.WriteFrame(frameFor(a2, src, "broad")) {
			t.Fatal("WriteFrame failed")
		}
		f, err := packet.Decode(mustRead(t, p2))
		if err != nil || f.Src != src {
			t.Fatalf("round %d broad: %+v err=%v", round, f, err)
		}
		// ...while the override source always lands on p3.
		if !p1.WriteFrame(frameFor(a2, special, "override")) {
			t.Fatal("WriteFrame failed")
		}
		f, err = packet.Decode(mustRead(t, p3))
		if err != nil || f.Src != special {
			t.Fatalf("round %d override: %+v err=%v", round, f, err)
		}
	}
}

// TestMicroflowOverflow drives one more distinct source than the cache
// holds through one port: the insert past microCacheCap resets the cache,
// no frame is lost, and the entry inserted after the reset serves hits.
func TestMicroflowOverflow(t *testing.T) {
	sw, _ := newTestSwitch(t)
	a2 := packet.WorkerAddr(1, 2)
	p1, _ := sw.AddPort("w1", packet.WorkerAddr(1, 1))
	p2, _ := sw.AddPort("w2", a2)
	if err := sw.ApplyFlowMod(dstRule(a2, p2.No(), 100)); err != nil {
		t.Fatal(err)
	}
	const n = microCacheCap + 1
	scatter(t, p1, p2, a2, n)
	misses := func() uint64 { return sw.CountersSnapshot().MicroflowMisses }
	waitCounter(t, misses, n, "MicroflowMisses")

	last := packet.WorkerAddr(9, n) // scatter's last source
	warm(t, p1, p2, a2, last)
	waitCounter(t, func() uint64 { return sw.CountersSnapshot().MicroflowHits }, 1, "MicroflowHits")
}

// TestCacheAgreesWithClassifier holds the cached forwarding path to the
// reference linear classifier (flowtable_test.go) under random rule sets
// and random add / modify / strict and loose delete / GroupMod churn. Frames
// from a small (src, dst) space revisit cached microflows across every
// mutation, so a cache that outlived a change would forward where the
// reference does not.
func TestCacheAgreesWithClassifier(t *testing.T) {
	const nPorts, nAddrs, steps, framesPerStep = 3, 3, 40, 12
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		sw, _ := newTestSwitch(t)
		ports := make([]*Port, nPorts)
		for i := range ports {
			ports[i], _ = sw.AddPort("w", packet.WorkerAddr(1, uint32(i+1)))
		}
		var linear linearTable
		groups := map[uint32]uint32{} // group ID → output port of its one bucket
		setGroup := func(gid, port uint32) {
			groups[gid] = port
			if err := sw.ApplyGroupMod(openflow.GroupMod{
				Command: openflow.GroupModify, GroupID: gid, Type: openflow.GroupSelect,
				Buckets: []openflow.Bucket{{Actions: []openflow.Action{openflow.Output(port)}}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		randPort := func() uint32 { return uint32(r.Intn(nPorts) + 1) }
		setGroup(1, randPort())
		setGroup(2, randPort())
		randActions := func() []openflow.Action {
			if r.Intn(3) == 0 {
				return []openflow.Action{openflow.ToGroup(uint32(r.Intn(2) + 1))}
			}
			return []openflow.Action{openflow.Output(randPort())}
		}
		randMatch := func() openflow.Match {
			return mkMatch(openflow.FieldSet(r.Intn(16)), randPort(),
				uint32(r.Intn(nAddrs)+1), uint32(r.Intn(nAddrs)+1),
				packet.EtherType+uint16(r.Intn(2)))
		}
		for step := 0; step < steps; step++ {
			m, prio := randMatch(), uint16(r.Intn(4))
			switch r.Intn(6) {
			case 0, 1:
				fm := openflow.FlowMod{Command: openflow.FlowAdd, Priority: prio, Match: m,
					Cookie: uint64(step), Actions: randActions()}
				linear.add(fm)
				if err := sw.ApplyFlowMod(fm); err != nil {
					t.Fatal(err)
				}
			case 2:
				fm := openflow.FlowMod{Command: openflow.FlowModify, Match: m, Actions: randActions()}
				linear.modify(fm)
				if err := sw.ApplyFlowMod(fm); err != nil {
					t.Fatal(err)
				}
			case 3, 4:
				strict := r.Intn(2) == 0
				cmd := openflow.FlowDelete
				if strict {
					cmd = openflow.FlowDeleteStrict
				}
				linear.remove(m, prio, strict)
				if err := sw.ApplyFlowMod(openflow.FlowMod{Command: cmd, Priority: prio, Match: m}); err != nil {
					t.Fatal(err)
				}
			case 5:
				setGroup(uint32(r.Intn(2)+1), randPort())
			}
			for i := 0; i < framesPerStep; i++ {
				in := randPort()
				src := packet.WorkerAddr(1, uint32(r.Intn(nAddrs)+1))
				dst := packet.WorkerAddr(1, uint32(r.Intn(nAddrs)+1))
				want := uint32(0)
				if rl := linear.lookup(in, src, dst, packet.EtherType); rl != nil {
					a := rl.loadActions()[0]
					want = a.Port
					if a.Type == openflow.ActGroup {
						want = groups[a.Group]
					}
				}
				drops := sw.CountersSnapshot().NoMatch
				if !ports[in-1].WriteFrame(frameFor(dst, src, "agree")) {
					t.Fatal("WriteFrame failed")
				}
				if !arrived(sw, ports, want, drops, src, dst) {
					t.Fatalf("seed %d step %d: frame in=%d %v→%v did not arrive where the reference sends it (port %d, 0 = drop; drops %d→%d)",
						seed, step, in, src, dst, want, drops, sw.CountersSnapshot().NoMatch)
				}
			}
		}
	}
}

// arrived reports whether the frame last written from src to dst reached
// port want (or, for want 0, was dropped as a table miss past the drops
// count read before the write) within a grace window.
func arrived(sw *Switch, ports []*Port, want uint32, drops uint64, src, dst packet.Addr) bool {
	if want == 0 {
		deadline := time.Now().Add(2 * time.Second)
		for sw.CountersSnapshot().NoMatch == drops && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return sw.CountersSnapshot().NoMatch > drops
	}
	frames, err := ports[want-1].ReadBatch(nil, 1, 2*time.Second)
	if err != nil || len(frames) != 1 {
		return false
	}
	f, err := packet.Decode(frames[0])
	return err == nil && f.Src == src && f.Dst == dst
}

func TestMalformedFramesCountedAsReceived(t *testing.T) {
	// A frame rejected before lookup must still appear in the port's RX
	// counters (it was received!) and be accounted in its own drop bucket,
	// not the table-miss one.
	sw, _ := newTestSwitch(t)
	p1, _ := sw.AddPort("w1", packet.WorkerAddr(1, 1))
	if !p1.WriteFrame([]byte{0xde, 0xad}) {
		t.Fatal("WriteFrame failed")
	}
	waitCounter(t, func() uint64 { return sw.CountersSnapshot().Malformed }, 1, "Malformed")
	if n := sw.CountersSnapshot().NoMatch; n != 0 {
		t.Fatalf("malformed frame counted as table miss: NoMatch = %d", n)
	}
	var rx uint64
	for _, ps := range sw.PortStatsSnapshot() {
		if ps.PortNo == p1.No() {
			rx = ps.RxPackets
		}
	}
	if rx != 1 {
		t.Fatalf("malformed frame missing from RxPackets: %d", rx)
	}
	c := sw.CountersSnapshot()
	if c.Malformed != 1 || c.Dropped < 1 {
		t.Fatalf("counters = %+v, want Malformed=1 and Dropped>=1", c)
	}
}
