package switchfabric

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"typhoon/internal/openflow"
	"typhoon/internal/packet"
)

func mkMatch(fields openflow.FieldSet, inPort uint32, src, dst uint32, et uint16) openflow.Match {
	return openflow.Match{
		Fields: fields, InPort: inPort,
		DlSrc: packet.WorkerAddr(1, src), DlDst: packet.WorkerAddr(1, dst),
		EtherType: et,
	}
}

func TestSubsumesSemantics(t *testing.T) {
	full := mkMatch(openflow.FieldInPort|openflow.FieldDlSrc|openflow.FieldDlDst|openflow.FieldEtherType,
		1, 10, 20, packet.EtherType)
	byDst := openflow.Match{Fields: openflow.FieldDlDst, DlDst: packet.WorkerAddr(1, 20)}
	if !subsumes(byDst, full) {
		t.Fatal("wildcard-heavy pattern should subsume the specific rule")
	}
	if subsumes(full, byDst) {
		t.Fatal("specific pattern must not subsume a wildcard rule")
	}
	otherDst := openflow.Match{Fields: openflow.FieldDlDst, DlDst: packet.WorkerAddr(1, 99)}
	if subsumes(otherDst, full) {
		t.Fatal("different value must not subsume")
	}
	empty := openflow.Match{}
	if !subsumes(empty, full) || !subsumes(empty, byDst) {
		t.Fatal("empty pattern subsumes everything")
	}
}

func TestPropertySubsumedRuleAlsoCovered(t *testing.T) {
	// Whenever pattern subsumes rule, any frame the rule matches would
	// also match the pattern — the property loose deletion relies on.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		randMatch := func(fields openflow.FieldSet) openflow.Match {
			return mkMatch(fields, r.Uint32()%4, r.Uint32()%4, r.Uint32()%4, uint16(r.Intn(2)))
		}
		pattern := randMatch(openflow.FieldSet(r.Intn(16)))
		rule := randMatch(openflow.FieldSet(r.Intn(16)))
		if !subsumes(pattern, rule) {
			return true // vacuous
		}
		// Sample frames that the rule covers; the pattern must too.
		for i := 0; i < 20; i++ {
			in := r.Uint32() % 4
			src := packet.WorkerAddr(1, r.Uint32()%4)
			dst := packet.WorkerAddr(1, r.Uint32()%4)
			et := uint16(r.Intn(2))
			if rule.Covers(in, src, dst, et) && !pattern.Covers(in, src, dst, et) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowTablePriorityStability(t *testing.T) {
	var ft flowTable
	// Two rules with equal priority: first-installed wins ties.
	a := openflow.FlowMod{Priority: 10, Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 1},
		Actions: []openflow.Action{openflow.Output(100)}}
	b := openflow.FlowMod{Priority: 10, Match: openflow.Match{Fields: openflow.FieldEtherType, EtherType: packet.EtherType},
		Actions: []openflow.Action{openflow.Output(200)}}
	ft.add(a)
	ft.add(b)
	r := ft.lookup(1, packet.Addr{}, packet.Addr{}, packet.EtherType)
	if r == nil || r.loadActions()[0].Port != 100 {
		t.Fatal("stable tie-break broken")
	}
}

func TestFlowTableModifyCounts(t *testing.T) {
	var ft flowTable
	ft.add(openflow.FlowMod{Priority: 1, Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 1}})
	ft.add(openflow.FlowMod{Priority: 1, Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 2}})
	n := ft.modify(openflow.FlowMod{
		Match:   openflow.Match{Fields: openflow.FieldInPort, InPort: 1},
		Actions: []openflow.Action{openflow.Output(9)},
	})
	if n != 1 {
		t.Fatalf("modified %d rules", n)
	}
	r := ft.lookup(1, packet.Addr{}, packet.Addr{}, 0)
	if r == nil || len(r.loadActions()) != 1 || r.loadActions()[0].Port != 9 {
		t.Fatal("modify did not take effect")
	}
}

func TestFlowTableExpireOnlyIdle(t *testing.T) {
	var ft flowTable
	ft.add(openflow.FlowMod{Priority: 1, IdleTimeoutMs: 10,
		Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 1}})
	ft.add(openflow.FlowMod{Priority: 1,
		Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 2}})
	time.Sleep(30 * time.Millisecond)
	removed := ft.expire(time.Now().UnixNano())
	if len(removed) != 1 || ft.len() != 1 {
		t.Fatalf("removed=%d left=%d", len(removed), ft.len())
	}
	// The remaining rule has no timeout and never expires.
	if r := ft.lookup(2, packet.Addr{}, packet.Addr{}, 0); r == nil {
		t.Fatal("persistent rule expired")
	}
}

func TestFlowTableSnapshotCounters(t *testing.T) {
	var ft flowTable
	ft.add(openflow.FlowMod{Priority: 1, Cookie: 77,
		Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 1}})
	r := ft.lookup(1, packet.Addr{}, packet.Addr{}, 0)
	r.touch(100, time.Now().UnixNano())
	r.touch(50, time.Now().UnixNano())
	snap := ft.snapshot()
	if len(snap) != 1 || snap[0].Packets != 2 || snap[0].Bytes != 150 || snap[0].Cookie != 77 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// linearTable is the reference classifier, written independently of
// flowTable: every add re-sorts the whole list (descending priority, stable
// in insertion order) where flowTable inserts into the priority band, and
// lookup is a linear scan. The conformance test below holds flowTable to
// exactly these semantics.
type linearTable struct {
	rules []*rule
}

func (t *linearTable) add(fm openflow.FlowMod) {
	nr := &rule{match: fm.Match.Normalize(), priority: fm.Priority, cookie: fm.Cookie}
	acts := fm.Actions
	nr.actions.Store(&acts)
	for i, r := range t.rules {
		if r.priority == fm.Priority && r.match.Equal(nr.match) {
			t.rules[i] = nr
			return
		}
	}
	t.rules = append(t.rules, nr)
	sort.SliceStable(t.rules, func(i, j int) bool {
		return t.rules[i].priority > t.rules[j].priority
	})
}

func (t *linearTable) remove(m openflow.Match, priority uint16, strict bool) {
	nm := m.Normalize()
	kept := t.rules[:0]
	for _, r := range t.rules {
		del := false
		if strict {
			del = r.priority == priority && r.match.Equal(nm)
		} else {
			del = subsumes(m, r.match)
		}
		if !del {
			kept = append(kept, r)
		}
	}
	clear(t.rules[len(kept):])
	t.rules = kept
}

// modify replaces the actions of every rule the match subsumes
// (FlowModify).
func (t *linearTable) modify(fm openflow.FlowMod) {
	acts := fm.Actions
	for _, r := range t.rules {
		if subsumes(fm.Match, r.match) {
			r.actions.Store(&acts)
		}
	}
}

func (t *linearTable) lookup(inPort uint32, src, dst packet.Addr, etherType uint16) *rule {
	for _, r := range t.rules {
		if r.match.Covers(inPort, src, dst, etherType) {
			return r
		}
	}
	return nil
}

// TestClassifierMatchesLinearConformance drives the classifier and the
// reference linear table through the same randomized install/delete churn
// and requires identical lookup decisions on a frame sweep after every
// mutation.
func TestClassifierMatchesLinearConformance(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var ft flowTable
		var linear linearTable
		randMatch := func() openflow.Match {
			return mkMatch(openflow.FieldSet(r.Intn(16)), r.Uint32()%3,
				r.Uint32()%3, r.Uint32()%3, uint16(r.Intn(2)))
		}
		sweep := func(step int) {
			for in := uint32(0); in < 3; in++ {
				for srcW := uint32(0); srcW < 3; srcW++ {
					for dstW := uint32(0); dstW < 3; dstW++ {
						for et := uint16(0); et < 2; et++ {
							src := packet.WorkerAddr(1, srcW)
							dst := packet.WorkerAddr(1, dstW)
							want := linear.lookup(in, src, dst, et)
							got := ft.lookup(in, src, dst, et)
							switch {
							case want == nil && got == nil:
							case want == nil || got == nil:
								t.Fatalf("seed %d step %d frame(%d,%d,%d,%d): classifier=%v linear=%v",
									seed, step, in, srcW, dstW, et, got != nil, want != nil)
							case want.cookie != got.cookie:
								t.Fatalf("seed %d step %d frame(%d,%d,%d,%d): classifier picked cookie %d (prio %d, %s), linear %d (prio %d, %s)",
									seed, step, in, srcW, dstW, et,
									got.cookie, got.priority, got.match.Fields,
									want.cookie, want.priority, want.match.Fields)
							}
						}
					}
				}
			}
		}
		for step := 0; step < 60; step++ {
			m := randMatch()
			prio := uint16(r.Intn(4))
			switch r.Intn(4) {
			case 0, 1: // add twice as often as deletes
				fm := openflow.FlowMod{Priority: prio, Match: m, Cookie: uint64(seed)<<32 | uint64(step),
					Actions: []openflow.Action{openflow.Output(uint32(step))}}
				ft.add(fm)
				linear.add(fm)
			case 2:
				ft.remove(m, prio, true)
				linear.remove(m, prio, true)
			case 3:
				ft.remove(m, prio, false)
				linear.remove(m, prio, false)
			}
			if ft.len() != len(linear.rules) {
				t.Fatalf("seed %d step %d: classifier holds %d rules, linear %d", seed, step, ft.len(), len(linear.rules))
			}
			sweep(step)
		}
	}
}

// TestPriorityTieInstallOrder pins the tie-break between rules of different
// masks: among equal priorities the earliest-installed rule wins, and a
// delete + reinstall demotes the rule to the back of the tie.
func TestPriorityTieInstallOrder(t *testing.T) {
	var ft flowTable
	byDst := openflow.Match{Fields: openflow.FieldDlDst, DlDst: packet.WorkerAddr(1, 2)}
	byPort := openflow.Match{Fields: openflow.FieldInPort, InPort: 1}
	a := openflow.FlowMod{Priority: 10, Match: byDst, Actions: []openflow.Action{openflow.Output(100)}}
	b := openflow.FlowMod{Priority: 10, Match: byPort, Actions: []openflow.Action{openflow.Output(200)}}
	ft.add(a)
	ft.add(b)
	frame := func() *rule { return ft.lookup(1, packet.WorkerAddr(1, 9), packet.WorkerAddr(1, 2), packet.EtherType) }
	if r := frame(); r == nil || r.loadActions()[0].Port != 100 {
		t.Fatal("first-installed rule should win the priority tie")
	}
	// Replacing a's actions in place (ADD with same match+priority) must
	// keep its install rank.
	a.Actions = []openflow.Action{openflow.Output(101)}
	ft.add(a)
	if r := frame(); r == nil || r.loadActions()[0].Port != 101 {
		t.Fatal("in-place replacement should keep the tie-break rank")
	}
	// Delete + reinstall sends a to the back of the tie: b now wins.
	ft.remove(byDst, 10, true)
	ft.add(a)
	if r := frame(); r == nil || r.loadActions()[0].Port != 200 {
		t.Fatal("reinstalled rule should lose the tie to the older rule")
	}
}

// ruleReleased asserts that the rule selected by pick becomes unreachable
// (its finalizer runs) after mutate removes it from the table — the
// regression guard for compacted slices retaining removed rules through
// their backing arrays.
func ruleReleased(t *testing.T, ft *flowTable, pick func() *rule, mutate func()) {
	t.Helper()
	freed := make(chan struct{})
	func() {
		r := pick()
		if r == nil {
			t.Fatal("pick returned no rule")
		}
		runtime.SetFinalizer(r, func(*rule) { close(freed) })
	}()
	mutate() // removed rules returned here are dropped on the floor
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("removed rule still reachable after GC: retained by a compacted backing array?")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sharedBucketRules installs count rules with the identical match at
// distinct priorities, so the lowest of them is the table's last element
// and removal exercises the in-place slice compaction.
func sharedBucketRules(ft *flowTable, count int) openflow.Match {
	m := openflow.Match{Fields: openflow.FieldDlDst, DlDst: packet.WorkerAddr(1, 7)}
	for i := 0; i < count; i++ {
		ft.add(openflow.FlowMod{Priority: uint16(10 + i), Match: m,
			Actions: []openflow.Action{openflow.Output(uint32(i))}})
	}
	return m
}

// ruleByPriority digs the rule with the given priority out of the table's
// rule list, so retention tests can finalize a specific position.
func ruleByPriority(ft *flowTable, prio uint16) *rule {
	ft.mu.RLock()
	defer ft.mu.RUnlock()
	for _, r := range ft.rules {
		if r.priority == prio {
			return r
		}
	}
	return nil
}

// The retention tests target the table's LAST element (lowest priority):
// left-shift compaction overwrites removed leading elements, so only a
// removed trailing rule stays pinned by the backing array — exactly the
// slot the clear() in removeWhere exists to release.
func TestFlowTableRemoveReleasesRule(t *testing.T) {
	var ft flowTable
	m := sharedBucketRules(&ft, 4)
	ruleReleased(t, &ft,
		func() *rule { return ruleByPriority(&ft, 10) }, // table tail
		func() { ft.remove(m, 10, true) })
	if ft.len() != 3 {
		t.Fatalf("len = %d, want 3", ft.len())
	}
}

func TestFlowTableExpireReleasesRule(t *testing.T) {
	var ft flowTable
	m := sharedBucketRules(&ft, 4)
	// Give the tail (lowest-priority) rule an idle timeout; the re-add
	// replaces it in place so it stays at the end of the table.
	ft.add(openflow.FlowMod{Priority: 10, Match: m, IdleTimeoutMs: 1,
		Actions: []openflow.Action{openflow.Output(99)}})
	ruleReleased(t, &ft,
		func() *rule { return ruleByPriority(&ft, 10) }, // table tail
		func() {
			time.Sleep(10 * time.Millisecond)
			ft.expire(time.Now().UnixNano())
		})
	if ft.len() != 3 {
		t.Fatalf("len = %d, want 3", ft.len())
	}
}

// TestRuleExpiryBoundary pins the idle-expiry comparison to a single clock
// domain: exactly-at-timeout does not expire, one nanosecond past does,
// and a scanner stamp behind the rule's lastHit (negative idle — the old
// cross-domain skew scenario) never expires the rule.
func TestRuleExpiryBoundary(t *testing.T) {
	var ft flowTable
	ft.add(openflow.FlowMod{Priority: 1, IdleTimeoutMs: 10,
		Match: openflow.Match{Fields: openflow.FieldInPort, InPort: 1}})
	r := ft.lookup(1, packet.Addr{}, packet.Addr{}, 0)
	if r == nil {
		t.Fatal("rule not installed")
	}
	const base = int64(1_000_000_000)
	timeout := int64(10 * time.Millisecond)
	r.lastHit.Store(base)
	if removed := ft.expire(base + timeout); len(removed) != 0 {
		t.Fatal("expired exactly at the timeout boundary")
	}
	// The coarse clock lagging the stamp (negative idle) must clamp to
	// zero, not expire — this is the skew that previously shaved the
	// timeout when expire ran on real time against coarse-clock stamps.
	r.lastHit.Store(base + timeout + int64(time.Millisecond))
	if removed := ft.expire(base); len(removed) != 0 {
		t.Fatal("expired a rule whose lastHit is ahead of the scanner clock")
	}
	r.lastHit.Store(base)
	if removed := ft.expire(base + timeout + 1); len(removed) != 1 {
		t.Fatal("did not expire past the boundary")
	}
}
