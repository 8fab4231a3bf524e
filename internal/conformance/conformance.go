// Package conformance is the consistency-conformance harness for the §3.5
// stable topology update protocol: a seeded, deterministic workload whose
// every tuple is tagged (key, seq), driven through a live topology while
// the cluster rescales mid-stream, with a recorder asserting the
// protocol's end-to-end guarantees:
//
//   - no loss and no duplication: every key's sequence arrives exactly
//     once (each key sees exactly 1..N);
//   - per-key FIFO: sequences reach the sink strictly in order, across
//     the migration boundary;
//   - state integrity: the keyed counter's running count equals the
//     sequence number for every delivery, so migrated state is exactly
//     the state the old instances held;
//   - window integrity: tumbling windows over the tuples' virtual clock
//     contain exactly the expected number of entries.
//
// Time is virtual: a tuple's sequence number is its clock, so window
// membership (window = (seq-1)/W) is a pure function of the seeded input
// and never depends on wall-clock scheduling — the harness is
// deterministic under -race, chaos, and arbitrary rescale timing.
package conformance

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"typhoon/internal/conformance/stream"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// Shared environment keys.
const (
	// EnvRecorder holds the harness *Recorder.
	EnvRecorder = "conformance.recorder"
	// EnvParams holds the harness *Params.
	EnvParams = "conformance.params"
)

// Logic names registered by this package.
const (
	LogicTaggedSource  = "conformance/tagged-source"
	LogicKeyedCounter  = "conformance/keyed-counter"
	LogicRecordingSink = "conformance/recording-sink"
)

func init() {
	worker.RegisterLogic(LogicTaggedSource, func() worker.Component { return &TaggedSource{} })
	worker.RegisterLogic(LogicKeyedCounter, func() worker.Component { return &KeyedCounter{} })
	worker.RegisterLogic(LogicRecordingSink, func() worker.Component { return &RecordingSink{} })
}

// Params configures one conformance run.
type Params struct {
	// Keys is the number of distinct routing keys.
	Keys int
	// PerKey is how many sequenced tuples each key carries (1..PerKey).
	PerKey int64
	// Window is the tumbling window width in virtual-clock units.
	Window int64
	// Seed drives key naming and interleaving; the emitted stream is a
	// pure function of Params.
	Seed int64
	// ThrottleEvery/ThrottleDelay pace the source (a sleep every N
	// tuples) so the run spans long enough for a mid-stream rescale.
	// Pacing changes wall-clock timing only, never content.
	ThrottleEvery int
	ThrottleDelay time.Duration
}

// KeyName returns the i-th routing key. The seed participates so key→
// partition assignments differ across seeds.
func (p Params) KeyName(i int) string {
	return fmt.Sprintf("k%03d-%d", i, p.Seed)
}

// Total is the run's total tuple count.
func (p Params) Total() int64 { return int64(p.Keys) * p.PerKey }

func harnessEnv(ctx *worker.Context) (*Params, *Recorder) {
	var pr *Params
	var rec *Recorder
	if e := ctx.Env(); e != nil {
		pr, _ = e.Get(EnvParams).(*Params)
		rec, _ = e.Get(EnvRecorder).(*Recorder)
	}
	if pr == nil {
		pr = &Params{Keys: 1, PerKey: 1, Window: 1}
	}
	if rec == nil {
		rec = NewRecorder(*pr, true)
	}
	return pr, rec
}

// TaggedSource emits the seeded (key, seq) stream: per-key sequences
// counting 1..PerKey, interleaved across keys in a seed-shuffled round-
// robin order. Parallelism must be 1 — the tagged stream is one totally
// ordered log.
type TaggedSource struct {
	p        *Params
	order    []int   // seed-shuffled key visit order
	next     []int64 // next sequence per key
	pos      int
	emitted  int64
	sinceNap int
}

// Open implements worker.Component.
func (s *TaggedSource) Open(ctx *worker.Context) error {
	s.p, _ = harnessEnv(ctx)
	rng := rand.New(rand.NewSource(s.p.Seed))
	s.order = rng.Perm(s.p.Keys)
	s.next = make([]int64, s.p.Keys)
	for i := range s.next {
		s.next[i] = 1
	}
	return nil
}

// Close implements worker.Component.
func (s *TaggedSource) Close(*worker.Context) error { return nil }

// Next implements worker.Spout.
func (s *TaggedSource) Next(ctx *worker.Context) (bool, error) {
	if s.emitted >= s.p.Total() {
		return false, nil
	}
	if s.p.ThrottleEvery > 0 && s.p.ThrottleDelay > 0 {
		if s.sinceNap >= s.p.ThrottleEvery {
			s.sinceNap = 0
			time.Sleep(s.p.ThrottleDelay)
		}
		s.sinceNap++
	}
	// Round-robin the shuffled key order, skipping exhausted keys.
	for {
		k := s.order[s.pos]
		s.pos = (s.pos + 1) % len(s.order)
		if s.next[k] <= s.p.PerKey {
			ctx.Emit(tuple.String(s.p.KeyName(k)), tuple.Int(s.next[k]))
			s.next[k]++
			s.emitted++
			return true, nil
		}
	}
}

// KeyedCounter is the stateful node under rescale: it tracks each key's
// last sequence as its running count and forwards (key, seq, count). With
// exactly-once in-order delivery and correct state migration, count==seq
// always holds; any loss, duplication, reorder, or state corruption shows
// up as a mismatch. Implements worker.StatefulComponent so managed
// rescales migrate the counts.
type KeyedCounter struct {
	rec    *Recorder
	counts map[string]int64
}

// Open implements worker.Component.
func (c *KeyedCounter) Open(ctx *worker.Context) error {
	_, c.rec = harnessEnv(ctx)
	c.counts = make(map[string]int64)
	return nil
}

// Close implements worker.Component.
func (c *KeyedCounter) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (c *KeyedCounter) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	key := in.Field(0).AsString()
	seq := in.Field(1).AsInt()
	if want := c.counts[key] + 1; seq != want {
		c.rec.counterMismatch(key, seq, want)
	}
	c.counts[key] = seq
	ctx.Emit(tuple.String(key), tuple.Int(seq), tuple.Int(c.counts[key]))
	return nil
}

// SnapshotState implements worker.StatefulComponent.
func (c *KeyedCounter) SnapshotState(_ *worker.Context, r worker.KeyRange) (map[string][]byte, error) {
	return worker.SnapshotCounts(c.counts, r), nil
}

// RestoreState implements worker.StatefulComponent (replace semantics).
func (c *KeyedCounter) RestoreState(_ *worker.Context, state map[string][]byte) error {
	counts, err := worker.RestoreCounts(state)
	if err != nil {
		return err
	}
	c.counts = counts
	return nil
}

// RecordingSink delivers every (key, seq, count) to the run's Recorder.
// Parallelism must be 1 so the recorder observes one global arrival order.
type RecordingSink struct {
	rec *Recorder
}

// Open implements worker.Component.
func (s *RecordingSink) Open(ctx *worker.Context) error {
	_, s.rec = harnessEnv(ctx)
	return nil
}

// Close implements worker.Component.
func (s *RecordingSink) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (s *RecordingSink) Execute(_ *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	s.rec.Record(in.Field(0).AsString(), in.Field(1).AsInt(), in.Field(2).AsInt())
	return nil
}

// Recorder collects sink deliveries and checks the conformance invariants
// online. In strict mode a sequence gap is a violation (no-loss runs);
// in relaxed mode gaps are counted but tolerated (chaos runs drop frames
// by design under at-most-once delivery) while duplication, reordering,
// and count mismatches remain violations.
//
// The per-key stream invariants ride on stream.Checker (in dedupe mode,
// so duplicates and reorders are reported distinctly); the Recorder adds
// the seeded run's ground truth: expected totals per key and tumbling-
// window population over the tuples' virtual clock.
type Recorder struct {
	p  Params
	sc *stream.Checker

	mu      sync.Mutex
	windows map[string]map[int64]int64
}

// NewRecorder builds a recorder for one run.
func NewRecorder(p Params, strict bool) *Recorder {
	return &Recorder{
		p:       p,
		sc:      stream.New(strict, true),
		windows: make(map[string]map[int64]int64),
	}
}

// Record ingests one sink delivery.
func (r *Recorder) Record(key string, seq, count int64) {
	if !r.sc.Observe(key, seq, count) {
		return // duplicate: never counts toward window population
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.windows[key] == nil {
		r.windows[key] = make(map[int64]int64)
	}
	r.windows[key][(seq-1)/r.p.Window]++
}

// counterMismatch is the KeyedCounter's in-pipeline invariant report.
func (r *Recorder) counterMismatch(key string, seq, want int64) {
	r.sc.CounterMismatch(key, seq, want)
}

// Total reports sink deliveries so far.
func (r *Recorder) Total() int64 { return r.sc.Total() }

// Gaps reports tolerated sequence gaps (relaxed mode only).
func (r *Recorder) Gaps() int64 { return r.sc.Gaps() }

// Violations returns the recorded violations (capped) and the full count.
func (r *Recorder) Violations() ([]string, int64) { return r.sc.Violations() }

// Complete reports whether every key has reached PerKey.
func (r *Recorder) Complete() bool {
	if r.sc.Keys() < r.p.Keys {
		return false
	}
	for i := 0; i < r.p.Keys; i++ {
		if r.sc.Last(r.p.KeyName(i)) < r.p.PerKey {
			return false
		}
	}
	return true
}

// Check runs the end-of-run audit for a strict (no-loss) run: exactly
// PerKey deliveries per key and every tumbling window carrying exactly
// its expected population. Returns all failures found (nil when clean).
func (r *Recorder) Check() []string {
	bad := r.sc.ViolationFindings()
	if total := r.sc.Total(); total != r.p.Total() {
		bad = append(bad, fmt.Sprintf("delivered %d tuples, want %d", total, r.p.Total()))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.p.Keys; i++ {
		key := r.p.KeyName(i)
		if n := r.sc.SeqCount(key); n != r.p.PerKey {
			bad = append(bad, fmt.Sprintf("key %s: %d distinct seqs, want %d", key, n, r.p.PerKey))
		}
		lastWin := (r.p.PerKey - 1) / r.p.Window
		for win := int64(0); win <= lastWin; win++ {
			want := r.p.Window
			if win == lastWin {
				want = r.p.PerKey - win*r.p.Window
			}
			if got := r.windows[key][win]; got != want {
				bad = append(bad, fmt.Sprintf("key %s window %d: %d entries, want %d", key, win, got, want))
			}
		}
	}
	return bad
}
