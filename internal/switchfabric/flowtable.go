package switchfabric

import (
	"slices"
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

// flowTable is the switch's classifier: one slice of rules ordered by
// descending priority, install order among equal priorities, and a lookup
// returns the first rule that covers the frame. It is the slow path only:
// each port pump's exact-match microflow cache (microflow.go) answers every
// frame whose (src, dst, ethertype) it has seen since the last mutation, so
// the table is scanned once per microflow per generation, not per frame.
type flowTable struct {
	mu    sync.RWMutex
	rules []*rule

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

// lookup returns the highest-priority rule covering the frame attributes,
// the earliest-installed among equal priorities.
func (t *flowTable) lookup(inPort uint32, src, dst packet.Addr, etherType uint16) *rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rules {
		if r.match.Covers(inPort, src, dst, etherType) {
			return r
		}
	}
	return nil
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
	// The priority band is [i, end of the run of equal priorities); a rule
	// with the same match is replaced where it stands, keeping its rank.
	i := sort.Search(len(t.rules), func(i int) bool { return t.rules[i].priority <= fm.Priority })
	for ; i < len(t.rules) && t.rules[i].priority == fm.Priority; i++ {
		r := t.rules[i]
		if !r.match.Equal(m) {
			continue
		}
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
		t.rules[i] = nr
		t.bump()
		return
	}
	t.rules = slices.Insert(t.rules, i, nr) // last of its priority band
	t.bump()
}

// ruleUnchanged reports whether an installed rule is semantically identical
// to an incoming FlowAdd with the same (normalized) match and priority.
func ruleUnchanged(r *rule, fm openflow.FlowMod) bool {
	return r.cookie == fm.Cookie &&
		r.idleTimeoutMs == fm.IdleTimeoutMs &&
		r.flags == fm.Flags &&
		r.meter == fm.Meter &&
		slices.Equal(r.loadActions(), fm.Actions)
}

// modify replaces the actions of rules subsumed by the match; it returns
// the number of rules updated.
func (t *flowTable) modify(fm openflow.FlowMod) int {
	acts := fm.Actions
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, r := range t.rules {
		if subsumes(fm.Match, r.match) {
			r.actions.Store(&acts)
			n++
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
	kept := t.rules[:0]
	for _, r := range t.rules {
		if del(r) {
			removed = append(removed, r)
		} else {
			kept = append(kept, r)
		}
	}
	if len(removed) == 0 {
		return nil
	}
	// Nil the compacted tail: without this the trailing *rule objects — and
	// their action slices — stay reachable through the backing array until
	// it regrows past them.
	clear(t.rules[len(kept):])
	t.rules = kept
	t.bump()
	return removed
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
	defer t.mu.RUnlock()
	out := make([]openflow.FlowStats, 0, len(t.rules))
	for _, r := range t.rules {
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
	return len(t.rules)
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
