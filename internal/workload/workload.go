// Package workload provides the computation logic, data generators and
// measurement hooks used by the evaluation harness: the word-count
// topology of Fig 2, the max-speed sequence source and checker of §6.1,
// fault-injecting variants for Figs 10 and 11, and the Yahoo advertisement
// analytics pipeline of Fig 13.
//
// All components communicate measurements through a Stats registry placed
// in the workers' shared environment, so experiments observe live behaviour
// without touching worker internals.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"typhoon/internal/metrics"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// Shared environment keys.
const (
	// EnvStats holds the *Stats registry.
	EnvStats = "workload.stats"
	// EnvConfig holds a *Config with workload parameters.
	EnvConfig = "workload.config"
	// EnvKafka holds the *kafkasim.Log input of the Yahoo pipeline.
	EnvKafka = "yahoo.kafka"
	// EnvKV holds the *kvstore.Store of the Yahoo pipeline.
	EnvKV = "yahoo.kv"
)

// Logic names registered by this package.
const (
	LogicSeqSource      = "workload/seq-source"
	LogicSeqChecker     = "workload/seq-checker"
	LogicForwarder      = "workload/forwarder"
	LogicSentenceSource = "workload/sentence-source"
	LogicSplitter       = "workload/splitter"
	LogicFaultySplitter = "workload/faulty-splitter"
	LogicOOMSplitter    = "workload/oom-splitter"
	LogicCounter        = "workload/counter"
	LogicSink           = "workload/sink"
	LogicDebugSink      = "workload/debug-sink"
)

// Stats is the measurement registry shared between components and the
// experiment harness.
type Stats struct {
	mu        sync.Mutex
	counters  map[string]*metrics.Counter
	timelines map[string]*metrics.Timeline
	start     time.Time
	interval  time.Duration
}

// NewStats builds a registry whose timelines start now with the given
// bucket width (zero selects one second).
func NewStats(interval time.Duration) *Stats {
	return &Stats{
		counters:  make(map[string]*metrics.Counter),
		timelines: make(map[string]*metrics.Timeline),
		start:     time.Now(),
		interval:  interval,
	}
}

// Counter returns (creating if needed) a named counter.
func (s *Stats) Counter(name string) *metrics.Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.counters[name]
	if c == nil {
		c = &metrics.Counter{}
		s.counters[name] = c
	}
	return c
}

// Timeline returns (creating if needed) a named timeline.
func (s *Stats) Timeline(name string) *metrics.Timeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	tl := s.timelines[name]
	if tl == nil {
		tl = metrics.NewTimeline(s.start, s.interval)
		s.timelines[name] = tl
	}
	return tl
}

// Names lists registered timeline names.
func (s *Stats) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for n := range s.timelines {
		out = append(out, n)
	}
	return out
}

// Rates adds the per-second rates of every timeline whose name starts with
// prefix, bucket by bucket: the aggregate series of one node's workers.
func (s *Stats) Rates(prefix string) []float64 {
	var out []float64
	for _, n := range s.Names() {
		if !strings.HasPrefix(n, prefix) {
			continue
		}
		for i, v := range s.Timeline(n).Rates() {
			if i == len(out) {
				out = append(out, 0)
			}
			out[i] += v
		}
	}
	return out
}

// Config carries workload parameters components read at Open time.
type Config struct {
	mu sync.RWMutex
	m  map[string]int64
}

// NewConfig builds an empty config.
func NewConfig() *Config { return &Config{m: make(map[string]int64)} }

// Set stores a parameter.
func (c *Config) Set(key string, v int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = v
}

// Get reads a parameter with a default.
func (c *Config) Get(key string, def int64) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v, ok := c.m[key]; ok {
		return v
	}
	return def
}

// Config keys.
const (
	// CfgSeqLimit bounds SeqSource emission (0 = unlimited).
	CfgSeqLimit = "seq.limit"
	// CfgPayload is the extra payload bytes per sequence tuple.
	CfgPayload = "seq.payload"
	// CfgFaultIndex selects which faulty-splitter instance crashes.
	CfgFaultIndex = "fault.index"
	// CfgFaultArmed arms the faulty splitter (0 = disarmed).
	CfgFaultArmed = "fault.armed"
	// CfgOOMThreshold is the queue depth at which the OOM splitter dies.
	CfgOOMThreshold = "oom.threshold"
	// CfgWorkNanos is per-tuple busy work for splitters.
	CfgWorkNanos = "work.nanos"
	// CfgSkew selects skewed (1) vs uniform (0) word distribution.
	CfgSkew = "words.skew"
	// CfgSourceRate paces the sentence source (tuples/s per instance);
	// zero emits at maximum speed. Controlled-rate experiments (Figs 10,
	// 11) use it so effects are visible as loss and queueing rather than
	// CPU contention.
	CfgSourceRate = "source.rate"
	// CfgDebugTap arms the baseline's pre-provisioned debug stream: the
	// tappable source emits every tuple a second time on DebugTapStream,
	// paying the extra application-level serialization Typhoon avoids
	// (Fig 12, Table 5).
	CfgDebugTap = "debug.tap"
)

// DebugTapStream carries the baseline's debug copies.
const DebugTapStream tuple.StreamID = 9

// LogicTappableSeqSource is SeqSource plus the baseline debug tap.
const LogicTappableSeqSource = "workload/tappable-seq-source"

func env(ctx *worker.Context) (*Stats, *Config) {
	var st *Stats
	var cf *Config
	if e := ctx.Env(); e != nil {
		st, _ = e.Get(EnvStats).(*Stats)
		cf, _ = e.Get(EnvConfig).(*Config)
	}
	if st == nil {
		st = NewStats(time.Second)
	}
	if cf == nil {
		cf = NewConfig()
	}
	return st, cf
}

func init() {
	worker.RegisterLogic(LogicSeqSource, func() worker.Component { return &SeqSource{} })
	worker.RegisterLogic(LogicSeqChecker, func() worker.Component { return &SeqChecker{} })
	worker.RegisterLogic(LogicForwarder, func() worker.Component { return &Forwarder{} })
	worker.RegisterLogic(LogicSentenceSource, func() worker.Component { return &SentenceSource{} })
	worker.RegisterLogic(LogicSplitter, func() worker.Component { return &Splitter{} })
	worker.RegisterLogic(LogicFaultySplitter, func() worker.Component { return &FaultySplitter{} })
	worker.RegisterLogic(LogicOOMSplitter, func() worker.Component { return &OOMSplitter{} })
	worker.RegisterLogic(LogicCounter, func() worker.Component { return &Counter{} })
	worker.RegisterLogic(LogicSink, func() worker.Component { return &Sink{} })
	worker.RegisterLogic(LogicDebugSink, func() worker.Component { return &DebugSink{} })
	worker.RegisterLogic(LogicTappableSeqSource, func() worker.Component { return &TappableSeqSource{} })
}

// TappableSeqSource emits sequence tuples and, when the debug tap is
// armed, re-emits each tuple on DebugTapStream — the baseline live-debug
// mechanism whose serialization cost Fig 12 measures.
type TappableSeqSource struct {
	SeqSource
	tap      bool
	sinceChk int
}

// Next implements worker.Spout.
func (s *TappableSeqSource) Next(ctx *worker.Context) (bool, error) {
	if s.limit > 0 && s.n >= s.limit {
		return false, nil
	}
	// Re-read the tap flag occasionally; per-tuple config reads would
	// distort the throughput both systems share.
	if s.sinceChk == 0 {
		s.tap = s.cfg.Get(CfgDebugTap, 0) != 0
		s.sinceChk = 512
	}
	s.sinceChk--
	ctx.Emit(tuple.Int(s.n), tuple.String(s.payload))
	if s.tap {
		ctx.EmitOn(DebugTapStream, tuple.Int(s.n), tuple.String(s.payload))
	}
	s.n++
	s.stats.Counter("emitted/" + s.name).Inc()
	return true, nil
}

// SeqSource emits (sequence, payload) tuples at maximum speed — the
// forwarding workload of Fig 8.
type SeqSource struct {
	stats   *Stats
	cfg     *Config
	n       int64
	limit   int64
	payload string
	name    string
}

// Open implements worker.Component.
func (s *SeqSource) Open(ctx *worker.Context) error {
	s.stats, s.cfg = env(ctx)
	s.limit = s.cfg.Get(CfgSeqLimit, 0)
	if n := s.cfg.Get(CfgPayload, 16); n > 0 {
		s.payload = strings.Repeat("x", int(n))
	}
	s.name = fmt.Sprintf("src/%d", ctx.WorkerID())
	return nil
}

// Close implements worker.Component.
func (s *SeqSource) Close(*worker.Context) error { return nil }

// Next implements worker.Spout.
func (s *SeqSource) Next(ctx *worker.Context) (bool, error) {
	if s.limit > 0 && s.n >= s.limit {
		return false, nil
	}
	ctx.Emit(tuple.Int(s.n), tuple.String(s.payload))
	s.n++
	s.stats.Counter("emitted/" + s.name).Inc()
	return true, nil
}

// SeqChecker is the sink of §6.1's forwarding experiment: it verifies
// sequence numbers and records per-second throughput.
type SeqChecker struct {
	stats *Stats
	tl    *metrics.Timeline
	last  int64
	gaps  *metrics.Counter
	seen  *metrics.Counter
}

// Open implements worker.Component.
func (s *SeqChecker) Open(ctx *worker.Context) error {
	s.stats, _ = env(ctx)
	s.tl = s.stats.Timeline(fmt.Sprintf("sink/%d", ctx.WorkerID()))
	s.gaps = s.stats.Counter("seq.gaps")
	s.seen = s.stats.Counter("seq.seen")
	s.last = -1
	return nil
}

// Close implements worker.Component.
func (s *SeqChecker) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (s *SeqChecker) Execute(_ *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	seq := in.Field(0).AsInt()
	if s.last >= 0 && seq != s.last+1 {
		s.gaps.Inc()
	}
	s.last = seq
	s.seen.Inc()
	s.tl.Add(time.Now(), 1)
	return nil
}

// Forwarder re-emits its input downstream (intermediate hop). It counts
// into the shared stats registry so its throughput survives worker
// removal during reconfiguration experiments.
type Forwarder struct {
	total *metrics.Counter
}

// Open implements worker.Component.
func (f *Forwarder) Open(ctx *worker.Context) error {
	st, _ := env(ctx)
	f.total = st.Counter("forward.total")
	return nil
}

// Close implements worker.Component.
func (f *Forwarder) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (f *Forwarder) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	f.total.Inc()
	ctx.Emit(in.Values...)
	return nil
}

// dictionary is the word-count vocabulary; the first entries dominate
// under a skewed (Zipf-like) distribution.
var dictionary = []string{
	"the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
	"storm", "typhoon", "stream", "tuple", "switch", "flow", "rule",
	"packet", "worker", "topology", "controller", "pipeline",
}

// SentenceSource emits random sentences (the word-count input of Fig 2);
// skew concentrates words on the head of the dictionary, the condition
// that imbalances key-based routing (§2).
type SentenceSource struct {
	stats *Stats
	cfg   *Config
	rng   *rand.Rand
	zipf  *rand.Zipf
	name  string

	// Pacing state (CfgSourceRate).
	rate     float64
	nextAt   time.Time
	sinceChk int
}

// Open implements worker.Component.
func (s *SentenceSource) Open(ctx *worker.Context) error {
	s.stats, s.cfg = env(ctx)
	s.rng = rand.New(rand.NewSource(int64(ctx.WorkerID()) + 7))
	if s.cfg.Get(CfgSkew, 0) != 0 {
		s.zipf = rand.NewZipf(s.rng, 1.5, 1, uint64(len(dictionary)-1))
	}
	s.name = fmt.Sprintf("src/%d", ctx.WorkerID())
	s.rate = float64(s.cfg.Get(CfgSourceRate, 0))
	s.nextAt = time.Now()
	return nil
}

// Close implements worker.Component.
func (s *SentenceSource) Close(*worker.Context) error { return nil }

// Next implements worker.Spout.
func (s *SentenceSource) Next(ctx *worker.Context) (bool, error) {
	if s.sinceChk == 0 {
		s.rate = float64(s.cfg.Get(CfgSourceRate, 0))
		s.sinceChk = 256
	}
	s.sinceChk--
	if s.rate > 0 {
		now := time.Now()
		if now.Before(s.nextAt) {
			return false, nil // throttled; the worker loop backs off
		}
		s.nextAt = s.nextAt.Add(time.Duration(float64(time.Second) / s.rate))
		if now.Sub(s.nextAt) > 100*time.Millisecond {
			s.nextAt = now // bound catch-up bursts after stalls
		}
	}
	words := make([]string, 0, 8)
	n := 3 + s.rng.Intn(6)
	for i := 0; i < n; i++ {
		var idx int
		if s.zipf != nil {
			idx = int(s.zipf.Uint64())
		} else {
			idx = s.rng.Intn(len(dictionary))
		}
		words = append(words, dictionary[idx])
	}
	ctx.Emit(tuple.String(strings.Join(words, " ")))
	s.stats.Counter("emitted/" + s.name).Inc()
	return true, nil
}

// Splitter splits sentences into words (Fig 2).
type Splitter struct {
	stats *Stats
	cfg   *Config
	tl    *metrics.Timeline
	work  time.Duration
}

// Open implements worker.Component.
func (s *Splitter) Open(ctx *worker.Context) error {
	s.stats, s.cfg = env(ctx)
	s.tl = s.stats.Timeline(fmt.Sprintf("split/%d", ctx.WorkerID()))
	s.work = time.Duration(s.cfg.Get(CfgWorkNanos, 0))
	return nil
}

// Close implements worker.Component.
func (s *Splitter) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (s *Splitter) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	if s.work > 0 {
		// Per-tuple service time. A sleep (rather than a busy spin) keeps
		// the model meaningful on small machines: a worker's service rate
		// is 1/work regardless of how many workers share a core, so
		// queueing behaviour matches the paper's multi-core testbed.
		time.Sleep(s.work)
	}
	for _, w := range strings.Fields(in.Field(0).AsString()) {
		ctx.Emit(tuple.String(w))
	}
	s.tl.Add(time.Now(), 1)
	return nil
}

// FaultySplitter behaves like Splitter until armed, then the selected
// instance crashes on its next tuple — the injected NullPointerException
// of Fig 10.
type FaultySplitter struct {
	Splitter
	index int
}

// Open implements worker.Component.
func (f *FaultySplitter) Open(ctx *worker.Context) error {
	f.index = ctx.Index()
	return f.Splitter.Open(ctx)
}

// Execute implements worker.Bolt.
func (f *FaultySplitter) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if f.cfg.Get(CfgFaultArmed, 0) != 0 && int64(f.index) == f.cfg.Get(CfgFaultIndex, 0) {
		return fmt.Errorf("workload: injected NullPointerException in split[%d]", f.index)
	}
	return f.Splitter.Execute(ctx, in)
}

// OOMSplitter crashes with an OutOfMemoryError analogue when its input
// backlog exceeds a threshold — the overload failure of Fig 11(a). With
// the auto-scaler keeping queues short, it never dies (Fig 11(b)).
type OOMSplitter struct {
	Splitter
	threshold int
}

// Open implements worker.Component.
func (o *OOMSplitter) Open(ctx *worker.Context) error {
	if err := o.Splitter.Open(ctx); err != nil {
		return err
	}
	o.threshold = int(o.cfg.Get(CfgOOMThreshold, 4096))
	return nil
}

// Execute implements worker.Bolt.
func (o *OOMSplitter) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if ctx.QueueLen() > o.threshold {
		return fmt.Errorf("workload: OutOfMemoryError in split[%d] (backlog %d)", ctx.Index(), ctx.QueueLen())
	}
	return o.Splitter.Execute(ctx, in)
}

// Counter is the stateful word counter of Fig 2 and Listing 2: it caches
// per-word counts in memory and flushes them downstream when a SIGNAL
// tuple arrives.
type Counter struct {
	stats  *Stats
	tl     *metrics.Timeline
	total  *metrics.Counter
	counts map[string]int64
}

// Open implements worker.Component.
func (c *Counter) Open(ctx *worker.Context) error {
	c.stats, _ = env(ctx)
	c.tl = c.stats.Timeline(fmt.Sprintf("count/%d", ctx.WorkerID()))
	c.total = c.stats.Counter("count.total")
	c.counts = make(map[string]int64)
	return nil
}

// Close implements worker.Component.
func (c *Counter) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (c *Counter) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		// Flush the cache (Listing 2's emitRankings pattern).
		for w, n := range c.counts {
			ctx.Emit(tuple.String(w), tuple.Int(n))
		}
		c.counts = make(map[string]int64)
		c.stats.Counter("count.flushes").Inc()
		return nil
	}
	c.counts[in.Field(0).AsString()]++
	c.tl.Add(time.Now(), 1)
	c.total.Inc()
	return nil
}

// CacheSize reports the in-memory cache size (tests).
func (c *Counter) CacheSize() int { return len(c.counts) }

// Sink counts everything it receives, per worker and globally.
type Sink struct {
	stats *Stats
	tl    *metrics.Timeline
	total *metrics.Counter
}

// Open implements worker.Component.
func (s *Sink) Open(ctx *worker.Context) error {
	s.stats, _ = env(ctx)
	s.tl = s.stats.Timeline(fmt.Sprintf("sink/%d", ctx.WorkerID()))
	s.total = s.stats.Counter("sink.total")
	return nil
}

// Close implements worker.Component.
func (s *Sink) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (s *Sink) Execute(_ *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	s.total.Inc()
	s.tl.Add(time.Now(), 1)
	return nil
}

// DebugSink is the live-debugger's debug worker (§4): it receives mirrored
// tuples and counts them without touching the pipeline.
type DebugSink struct {
	stats *Stats
	seen  *metrics.Counter
}

// Open implements worker.Component.
func (d *DebugSink) Open(ctx *worker.Context) error {
	d.stats, _ = env(ctx)
	d.seen = d.stats.Counter("debug.seen")
	return nil
}

// Close implements worker.Component.
func (d *DebugSink) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (d *DebugSink) Execute(_ *worker.Context, in tuple.Tuple) error {
	if !in.Stream.IsSignal() {
		d.seen.Inc()
	}
	return nil
}
