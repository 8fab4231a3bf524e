package stream

import (
	"reflect"
	"strings"
	"testing"
)

// delivery is one (key, seq, count) arrival at the sink.
type delivery struct {
	key        string
	seq, count int64
}

// cleanStream is two keys' sequences 1..5 interleaved, each carrying the
// running count a correct stateful stage would have attached.
func cleanStream() []delivery {
	var out []delivery
	for seq := int64(1); seq <= 5; seq++ {
		out = append(out, delivery{"a", seq, seq}, delivery{"b", seq, seq})
	}
	return out
}

// indexOf finds key's delivery of seq in a stream.
func indexOf(t *testing.T, s []delivery, key string, seq int64) int {
	t.Helper()
	for i, d := range s {
		if d.key == key && d.seq == seq {
			return i
		}
	}
	t.Fatalf("no delivery %s/%d in stream", key, seq)
	return -1
}

// kinds reduces violation texts to their kind (the text before the colon).
func kinds(violations []string) []string {
	var out []string
	for _, v := range violations {
		kind, _, _ := strings.Cut(v, ":")
		out = append(out, kind)
	}
	return out
}

// TestCheckerFlagsExactlyTheInjectedFault mutation-tests the oracle: a
// clean stream passes in every mode, and each single injected fault yields
// precisely the violation it should — no more, no fewer, no other kind —
// in strict/relaxed × dedupe/high-water-mark mode.
func TestCheckerFlagsExactlyTheInjectedFault(t *testing.T) {
	type expect struct {
		kinds []string
		gaps  int64
	}
	mutations := []struct {
		name   string
		mutate func(t *testing.T, s []delivery) []delivery
		// counter, when set, is reported through CounterMismatch after the
		// (clean) stream, as the in-pipeline stateful stage would.
		counter *[2]int64 // seq, want
		// stalled is how many deliveries Observe must report as not
		// advancing their key's stream (only a duplicate does not).
		stalled         int
		strict, relaxed expect
	}{
		{
			name:   "clean",
			mutate: func(_ *testing.T, s []delivery) []delivery { return s },
		},
		{
			name: "loss",
			mutate: func(t *testing.T, s []delivery) []delivery {
				i := indexOf(t, s, "a", 3)
				return append(s[:i:i], s[i+1:]...)
			},
			strict:  expect{kinds: []string{"gap"}},
			relaxed: expect{gaps: 1},
		},
		{
			name: "duplicate",
			mutate: func(t *testing.T, s []delivery) []delivery {
				i := indexOf(t, s, "a", 3)
				out := append([]delivery(nil), s[:i+1]...)
				return append(append(out, s[i]), s[i+1:]...)
			},
			stalled: 1,
			strict:  expect{kinds: []string{"duplicate"}},
			relaxed: expect{kinds: []string{"duplicate"}},
		},
		{
			// 4 overtakes 3: the early 4 is a forward jump (a strict gap, a
			// tolerated relaxed one), the late 3 the FIFO violation.
			name: "reorder",
			mutate: func(t *testing.T, s []delivery) []delivery {
				i, j := indexOf(t, s, "a", 3), indexOf(t, s, "a", 4)
				s[i], s[j] = s[j], s[i]
				return s
			},
			strict:  expect{kinds: []string{"gap", "reorder"}},
			relaxed: expect{kinds: []string{"reorder"}, gaps: 1},
		},
		{
			// State restored from a stale snapshot: the sequence is right,
			// the carried running count is lower.
			name: "replayed state count",
			mutate: func(t *testing.T, s []delivery) []delivery {
				s[indexOf(t, s, "b", 4)].count = 2
				return s
			},
			strict:  expect{kinds: []string{"count mismatch"}},
			relaxed: expect{kinds: []string{"count mismatch"}},
		},
		{
			name:    "counter stage saw a replay",
			mutate:  func(_ *testing.T, s []delivery) []delivery { return s },
			counter: &[2]int64{2, 4},
			strict:  expect{kinds: []string{"counter state"}},
			relaxed: expect{kinds: []string{"counter state"}},
		},
		{
			name:    "counter stage saw a forward jump",
			mutate:  func(_ *testing.T, s []delivery) []delivery { return s },
			counter: &[2]int64{6, 4},
			strict:  expect{kinds: []string{"counter state"}},
			relaxed: expect{gaps: 1},
		},
	}
	for _, m := range mutations {
		for _, strict := range []bool{true, false} {
			for _, dedupe := range []bool{true, false} {
				want := m.relaxed
				if strict {
					want = m.strict
				}
				c := New(strict, dedupe)
				stream := m.mutate(t, cleanStream())
				advanced := 0
				for _, d := range stream {
					if c.Observe(d.key, d.seq, d.count) {
						advanced++
					}
				}
				if m.counter != nil {
					c.CounterMismatch("a", m.counter[0], m.counter[1])
				}
				got, n := c.Violations()
				if !reflect.DeepEqual(kinds(got), want.kinds) || n != int64(len(want.kinds)) {
					t.Errorf("%s strict=%v dedupe=%v: violations %q (count %d), want kinds %q",
						m.name, strict, dedupe, got, n, want.kinds)
				}
				if c.Gaps() != want.gaps {
					t.Errorf("%s strict=%v dedupe=%v: Gaps() = %d, want %d", m.name, strict, dedupe, c.Gaps(), want.gaps)
				}
				if c.Total() != int64(len(stream)) {
					t.Errorf("%s strict=%v dedupe=%v: Total() = %d, want %d", m.name, strict, dedupe, c.Total(), len(stream))
				}
				if want := len(stream) - m.stalled; advanced != want {
					t.Errorf("%s strict=%v dedupe=%v: %d deliveries advanced, want %d", m.name, strict, dedupe, advanced, want)
				}
				if c.Keys() != 2 || c.Last("a") != 5 || c.Last("b") != 5 {
					t.Errorf("%s strict=%v dedupe=%v: keys %d, high-water marks a=%d b=%d, want 2, 5, 5",
						m.name, strict, dedupe, c.Keys(), c.Last("a"), c.Last("b"))
				}
			}
		}
	}
}

// A duplicate of an older sequence is a duplicate only to the checker that
// remembers every sequence; the high-water-mark checker can say no more
// than that the key went backwards.
func TestDedupeTellsDuplicateFromReorder(t *testing.T) {
	for dedupe, want := range map[bool]string{true: "duplicate", false: "reorder"} {
		c := New(true, dedupe)
		for _, seq := range []int64{1, 2, 3, 2} {
			c.Observe("a", seq, seq)
		}
		if got, _ := c.Violations(); !reflect.DeepEqual(kinds(got), []string{want}) {
			t.Errorf("dedupe=%v: violations %q, want one %s", dedupe, got, want)
		}
		if got, want := c.SeqCount("a"), int64(3); got != want {
			t.Errorf("dedupe=%v: SeqCount = %d, want %d", dedupe, got, want)
		}
	}
}

func TestCheckComplete(t *testing.T) {
	c := New(true, false)
	for _, d := range cleanStream() {
		c.Observe(d.key, d.seq, d.count)
	}
	if bad := c.CheckComplete(map[string]int64{"a": 5, "b": 5}); bad != nil {
		t.Fatalf("exact emitted map: %q, want clean", bad)
	}
	// The source emitted one more of a than the sink ever saw: the tail
	// loss no online check can notice.
	bad := c.CheckComplete(map[string]int64{"a": 6, "b": 5})
	if len(bad) != 2 || !strings.Contains(bad[0], "key a: delivered through seq 5, emitted 6") ||
		!strings.Contains(bad[1], "delivered 10 tuples, emitted 11") {
		t.Fatalf("short delivery: %q", bad)
	}
	// A key the source never emitted, and one it emitted that never arrived.
	bad = c.CheckComplete(map[string]int64{"a": 5, "c": 1})
	joined := strings.Join(bad, "\n")
	for _, want := range []string{"key c: delivered through seq 0, emitted 1", "key b: delivered but never emitted", "delivered 10 tuples, emitted 6"} {
		if !strings.Contains(joined, want) {
			t.Errorf("findings lack %q:\n%s", want, joined)
		}
	}
	// Online violations are part of the end-of-run verdict.
	c.Observe("a", 5, 5)
	if bad := c.CheckComplete(map[string]int64{"a": 5, "b": 5}); len(bad) != 2 || !strings.HasPrefix(bad[0], "duplicate:") {
		t.Fatalf("after a duplicate: %q, want the duplicate and the total mismatch", bad)
	}
}

// The recorded list is capped; the count and the overflow marker are not.
func TestViolationListIsCapped(t *testing.T) {
	c := New(true, false)
	c.Observe("a", 1, 1)
	for i := 0; i < maxViolations+10; i++ {
		c.Observe("a", 1, 1)
	}
	list, n := c.Violations()
	if len(list) != maxViolations || n != maxViolations+10 {
		t.Fatalf("recorded %d of %d violations, want %d of %d", len(list), n, maxViolations, maxViolations+10)
	}
	if f := c.ViolationFindings(); len(f) != maxViolations+1 || f[maxViolations] != "... and 10 more violations" {
		t.Fatalf("findings tail = %q", f[len(f)-1])
	}
}
