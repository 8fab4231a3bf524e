package switchfabric

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"typhoon/internal/clock"
	"typhoon/internal/openflow"
	"typhoon/internal/packet"
)

// rule is one installed flow entry.
type rule struct {
	match         openflow.Match // normalized: wildcarded fields zeroed
	priority      uint16
	cookie        uint64
	idleTimeoutMs uint32
	flags         uint16
	// meter is the ID of the token-bucket meter frames matching this rule
	// are charged against (0 = unmetered). Immutable once installed: rate
	// changes retune the meter object itself, never the rule.
	meter uint32

	// seq is the global install rank, used to break priority ties: among
	// equal-priority rules the earliest-installed wins, matching the stable
	// insertion order of the pre-staged linear table. A replacement (same
	// match and priority) inherits the rank of the rule it replaces.
	seq uint64

	// actions is swapped atomically by FlowModify. The fast path reads the
	// action list without holding the table lock (directly after lookup, or
	// later via the microflow cache), so in-place mutation of a
	// shared slice would race; publishing a fresh slice through an atomic
	// pointer keeps every reader on a consistent list.
	actions atomic.Pointer[[]openflow.Action]

	packets atomic.Uint64
	bytes   atomic.Uint64
	lastHit atomic.Int64 // coarse-clock unix nanos of last match (or install)
}

func (r *rule) loadActions() []openflow.Action { return *r.actions.Load() }

// touch records a match. now is a coarse wall-clock stamp supplied by the
// caller so the per-frame path never calls time.Now.
func (r *rule) touch(bytes int, now int64) {
	r.packets.Add(1)
	r.bytes.Add(uint64(bytes))
	r.lastHit.Store(now)
}

// expired reports whether the rule's idle timeout elapsed. now must come
// from the same clock domain as the lastHit stamps (the coarse clock):
// mixing domains lets the coarse clock's lag masquerade as idle time.
// Negative idle — the scanner's stamp landing behind the rule's — is
// clamped to zero rather than wrapping the comparison.
func (r *rule) expired(now int64) bool {
	if r.idleTimeoutMs == 0 {
		return false
	}
	idle := now - r.lastHit.Load()
	if idle < 0 {
		idle = 0
	}
	return idle > int64(r.idleTimeoutMs)*int64(time.Millisecond)
}

// flowKey is the tuple a sub-table is probed with: the frame attributes
// restricted to the sub-table's mask, with wildcarded fields zeroed.
type flowKey struct {
	inPort    uint32
	src, dst  packet.Addr
	etherType uint16
}

// maskedKey projects frame attributes onto a mask.
func maskedKey(fs openflow.FieldSet, inPort uint32, src, dst packet.Addr, etherType uint16) flowKey {
	var k flowKey
	if fs.Has(openflow.FieldInPort) {
		k.inPort = inPort
	}
	if fs.Has(openflow.FieldDlSrc) {
		k.src = src
	}
	if fs.Has(openflow.FieldDlDst) {
		k.dst = dst
	}
	if fs.Has(openflow.FieldEtherType) {
		k.etherType = etherType
	}
	return k
}

// ruleKey is the masked key a normalized match occupies in its sub-table.
func ruleKey(m openflow.Match) flowKey {
	return flowKey{inPort: m.InPort, src: m.DlSrc, dst: m.DlDst, etherType: m.EtherType}
}

// subTable holds every rule sharing one wildcard mask, keyed by the values
// of the masked fields. A bucket carries the (rare) rules with identical
// match but different priorities, ordered by descending priority, so a
// probe reads bucket[0] and is done.
type subTable struct {
	mask openflow.FieldSet
	// maxPriority is the highest priority of any rule in the sub-table; the
	// probe loop stops once the running best beats every remaining one.
	maxPriority uint16
	entries     map[flowKey][]*rule
}

// recompute refreshes maxPriority after removals.
func (st *subTable) recompute() {
	st.maxPriority = 0
	for _, bucket := range st.entries {
		if len(bucket) > 0 && bucket[0].priority > st.maxPriority {
			st.maxPriority = bucket[0].priority
		}
	}
}

// flowTable is a tuple-space-search classifier: rules live in priority-
// staged sub-tables keyed by wildcard mask, so a lookup probes one small
// map per distinct mask instead of scanning every rule. The streaming
// workload produces only a handful of distinct masks (Table 3's rule
// vocabulary), so a slow-path lookup is a few map probes regardless of
// rule count; the per-pump microflow cache (microflow.go) keeps repeated
// lookups off it entirely.
type flowTable struct {
	mu sync.RWMutex
	// subs is the probe order: descending maxPriority, so the scan can stop
	// as soon as the best hit so far outranks every remaining sub-table.
	subs    []*subTable
	count   int
	nextSeq uint64

	// gen, when set, is bumped inside the write lock by every mutation so
	// microflow caches are invalidated with a happens-before edge:
	// any observer that sees the mutation (same lock, or the mutating call
	// returning) also sees the new generation.
	gen *atomic.Uint64
}

func (t *flowTable) bump() {
	if t.gen != nil {
		t.gen.Add(1)
	}
}

// resort restores the descending-maxPriority probe order. Callers hold mu.
func (t *flowTable) resort() {
	sort.SliceStable(t.subs, func(i, j int) bool {
		return t.subs[i].maxPriority > t.subs[j].maxPriority
	})
}

// sub returns the sub-table for a mask, creating it if needed. Callers
// hold mu.
func (t *flowTable) sub(mask openflow.FieldSet) *subTable {
	for _, st := range t.subs {
		if st.mask == mask {
			return st
		}
	}
	st := &subTable{mask: mask, entries: make(map[flowKey][]*rule)}
	t.subs = append(t.subs, st)
	return st
}

// lookup returns the highest-priority rule covering the frame attributes.
func (t *flowTable) lookup(inPort uint32, src, dst packet.Addr, etherType uint16) *rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var best *rule
	for _, st := range t.subs {
		// Strictly-better only: an equal-priority rule in a later sub-table
		// may still win its tie on install rank, so keep probing ties.
		if best != nil && best.priority > st.maxPriority {
			break
		}
		bucket := st.entries[maskedKey(st.mask, inPort, src, dst, etherType)]
		if len(bucket) == 0 {
			continue
		}
		r := bucket[0]
		if best == nil || r.priority > best.priority ||
			(r.priority == best.priority && r.seq < best.seq) {
			best = r
		}
	}
	return best
}

// add installs a rule, replacing any entry with the identical match and
// priority (OpenFlow ADD semantics).
func (t *flowTable) add(fm openflow.FlowMod) {
	m := fm.Match.Normalize()
	nr := &rule{
		match:         m,
		priority:      fm.Priority,
		cookie:        fm.Cookie,
		idleTimeoutMs: fm.IdleTimeoutMs,
		flags:         fm.Flags,
		meter:         fm.Meter,
	}
	acts := fm.Actions
	nr.actions.Store(&acts)
	nr.lastHit.Store(clock.CoarseUnixNano())
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.sub(m.Fields)
	key := ruleKey(m)
	bucket := st.entries[key]
	for i, r := range bucket {
		if r.priority == fm.Priority {
			if ruleUnchanged(r, fm) {
				// Identical re-add: refresh the idle timer (exactly what a
				// replacement would do) but keep the installed rule, its
				// counters, and — critically — the cache generation. A new
				// master reconciling after failover re-sends every rule it
				// believes installed; treating those as no-ops keeps the
				// microflow caches hot, so the data plane never
				// notices the control plane re-homing.
				r.lastHit.Store(clock.CoarseUnixNano())
				return
			}
			nr.seq = r.seq // replacement keeps the original's tie-break rank
			bucket[i] = nr
			t.bump()
			return
		}
	}
	nr.seq = t.nextSeq
	t.nextSeq++
	bucket = append(bucket, nr)
	sort.SliceStable(bucket, func(i, j int) bool {
		return bucket[i].priority > bucket[j].priority
	})
	st.entries[key] = bucket
	t.count++
	if fm.Priority > st.maxPriority {
		st.maxPriority = fm.Priority
	}
	t.resort()
	t.bump()
}

// ruleUnchanged reports whether an installed rule is semantically identical
// to an incoming FlowAdd with the same (normalized) match and priority.
func ruleUnchanged(r *rule, fm openflow.FlowMod) bool {
	return r.cookie == fm.Cookie &&
		r.idleTimeoutMs == fm.IdleTimeoutMs &&
		r.flags == fm.Flags &&
		r.meter == fm.Meter &&
		actionsEqual(r.loadActions(), fm.Actions)
}

func actionsEqual(a, b []openflow.Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// modify replaces the actions of rules subsumed by the match; it returns
// the number of rules updated.
func (t *flowTable) modify(fm openflow.FlowMod) int {
	acts := fm.Actions
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, st := range t.subs {
		for _, bucket := range st.entries {
			for _, r := range bucket {
				if subsumes(fm.Match, r.match) {
					r.actions.Store(&acts)
					n++
				}
			}
		}
	}
	if n > 0 {
		t.bump()
	}
	return n
}

// removeWhere deletes every rule del reports true for, returning the
// removed set in table order (priority descending, install order among
// ties). Callers hold mu.
func (t *flowTable) removeWhere(del func(*rule) bool) []*rule {
	var removed []*rule
	changed := false
	for _, st := range t.subs {
		stChanged := false
		for key, bucket := range st.entries {
			kept := bucket[:0]
			for _, r := range bucket {
				if del(r) {
					removed = append(removed, r)
				} else {
					kept = append(kept, r)
				}
			}
			if len(kept) == len(bucket) {
				continue
			}
			// Nil the compacted tail: without this the trailing *rule
			// objects — and their action slices — stay reachable through
			// the bucket's backing array until it regrows past them.
			clear(bucket[len(kept):])
			stChanged = true
			if len(kept) == 0 {
				delete(st.entries, key)
			} else {
				st.entries[key] = kept
			}
		}
		if stChanged {
			st.recompute()
			changed = true
		}
	}
	if changed {
		t.dropEmptySubs()
		t.resort()
		t.count -= len(removed)
		t.bump()
	}
	sortRules(removed)
	return removed
}

// dropEmptySubs discards sub-tables left without entries. Callers hold mu.
func (t *flowTable) dropEmptySubs() {
	kept := t.subs[:0]
	for _, st := range t.subs {
		if len(st.entries) > 0 {
			kept = append(kept, st)
		}
	}
	clear(t.subs[len(kept):])
	t.subs = kept
}

// remove deletes rules. Strict deletion requires exact match and priority;
// loose deletion removes every rule subsumed by the match. Removed rules
// are returned so the switch can emit FlowRemoved notifications.
func (t *flowTable) remove(m openflow.Match, priority uint16, strict bool) []*rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	if strict {
		nm := m.Normalize()
		return t.removeWhere(func(r *rule) bool {
			return r.priority == priority && r.match.Equal(nm)
		})
	}
	return t.removeWhere(func(r *rule) bool { return subsumes(m, r.match) })
}

// wipe removes every rule, returning the removed set (chaos flow-table
// wipe; the switch notifies the controller so rules get reinstalled).
func (t *flowTable) wipe() []*rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.removeWhere(func(*rule) bool { return true })
}

// expire removes rules whose idle timeout elapsed, returning them. now is
// a coarse-clock stamp (clock.CoarseUnixNano), the same domain rule.touch
// writes, so skew between the coarse and real clocks can never shorten an
// idle timeout.
func (t *flowTable) expire(now int64) []*rule {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.removeWhere(func(r *rule) bool { return r.expired(now) })
}

// snapshot returns flow statistics rows for all rules in table order.
func (t *flowTable) snapshot() []openflow.FlowStats {
	t.mu.RLock()
	rules := make([]*rule, 0, t.count)
	for _, st := range t.subs {
		for _, bucket := range st.entries {
			rules = append(rules, bucket...)
		}
	}
	t.mu.RUnlock()
	sortRules(rules)
	out := make([]openflow.FlowStats, 0, len(rules))
	for _, r := range rules {
		out = append(out, openflow.FlowStats{
			Match:    r.match,
			Priority: r.priority,
			Cookie:   r.cookie,
			Packets:  r.packets.Load(),
			Bytes:    r.bytes.Load(),
		})
	}
	return out
}

func (t *flowTable) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// sortRules orders rules like the classifier ranks them: priority
// descending, install order among ties.
func sortRules(rules []*rule) {
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].priority != rules[j].priority {
			return rules[i].priority > rules[j].priority
		}
		return rules[i].seq < rules[j].seq
	})
}

// subsumes reports whether outer (a deletion/modification pattern) covers
// rule match inner: every field constrained by outer must be constrained to
// the same value in inner.
func subsumes(outer, inner openflow.Match) bool {
	if outer.Fields.Has(openflow.FieldInPort) &&
		(!inner.Fields.Has(openflow.FieldInPort) || inner.InPort != outer.InPort) {
		return false
	}
	if outer.Fields.Has(openflow.FieldDlSrc) &&
		(!inner.Fields.Has(openflow.FieldDlSrc) || inner.DlSrc != outer.DlSrc) {
		return false
	}
	if outer.Fields.Has(openflow.FieldDlDst) &&
		(!inner.Fields.Has(openflow.FieldDlDst) || inner.DlDst != outer.DlDst) {
		return false
	}
	if outer.Fields.Has(openflow.FieldEtherType) &&
		(!inner.Fields.Has(openflow.FieldEtherType) || inner.EtherType != outer.EtherType) {
		return false
	}
	return true
}
