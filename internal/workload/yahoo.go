package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"typhoon/internal/kafkasim"
	"typhoon/internal/kvstore"
	"typhoon/internal/metrics"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// Yahoo streaming benchmark (Fig 13): kafka-client → parse → filter →
// projection → join → aggregation&store, with Kafka and Redis emulated by
// kafkasim and kvstore. The §6.2 computation-logic reconfiguration swaps
// LogicFilterView for LogicFilterViewClick at runtime.

// Yahoo logic names.
const (
	LogicKafkaClient     = "yahoo/kafka-client"
	LogicParse           = "yahoo/parse"
	LogicFilterView      = "yahoo/filter-view"
	LogicFilterViewClick = "yahoo/filter-view-click"
	LogicProjection      = "yahoo/projection"
	LogicJoin            = "yahoo/join"
	LogicAggStore        = "yahoo/agg-store"
)

// YahooTopology builds the Fig 13 pipeline with the given filter logic.
func YahooTopology(name string, app uint16, filterLogic string) (*topology.Logical, error) {
	b := topology.NewBuilder(name, app)
	b.Source("kafka", LogicKafkaClient, 1)
	b.Node("parse", LogicParse, 1).ShuffleFrom("kafka")
	b.Node("filter", filterLogic, 3).ShuffleFrom("parse")
	b.Node("projection", LogicProjection, 3).ShuffleFrom("filter")
	b.Node("join", LogicJoin, 3).FieldsFrom("projection", 0)
	b.Node("agg", LogicAggStore, 1).FieldsFrom("join", 0)
	return b.Build()
}

// AdEvent is the benchmark's input record.
type AdEvent struct {
	UserID    string `json:"user_id"`
	PageID    string `json:"page_id"`
	AdID      string `json:"ad_id"`
	AdType    string `json:"ad_type"`
	EventType string `json:"event_type"`
	EventTime int64  `json:"event_time"`
	IPAddress string `json:"ip_address"`
}

// WindowSize is the aggregation window (the paper uses a 10-second tuple
// window; experiments shrink it via CfgWindowMillis).
const CfgWindowMillis = "yahoo.window.ms"

func init() {
	worker.RegisterLogic(LogicKafkaClient, func() worker.Component { return &KafkaClient{} })
	worker.RegisterLogic(LogicParse, func() worker.Component { return &Parse{} })
	worker.RegisterLogic(LogicFilterView, func() worker.Component { return &Filter{allow: map[string]bool{"view": true}} })
	worker.RegisterLogic(LogicFilterViewClick, func() worker.Component {
		return &Filter{allow: map[string]bool{"view": true, "click": true}}
	})
	worker.RegisterLogic(LogicProjection, func() worker.Component { return &Projection{} })
	worker.RegisterLogic(LogicJoin, func() worker.Component { return &Join{} })
	worker.RegisterLogic(LogicAggStore, func() worker.Component { return &AggStore{} })
}

// AdEventGen produces synthetic ad events over a fixed campaign/ad
// universe, standing in for the benchmark's event producers.
type AdEventGen struct {
	rng       *rand.Rand
	Campaigns int
	AdsPerC   int
	types     []string
}

// NewAdEventGen builds a generator.
func NewAdEventGen(seed int64, campaigns, adsPerCampaign int) *AdEventGen {
	return &AdEventGen{
		rng:       rand.New(rand.NewSource(seed)),
		Campaigns: campaigns,
		AdsPerC:   adsPerCampaign,
		types:     []string{"view", "click", "purchase"},
	}
}

// PrepopulateCampaigns loads the ad→campaign mapping into the KV store,
// the join table the benchmark reads.
func (g *AdEventGen) PrepopulateCampaigns(kv *kvstore.Store) {
	for c := 0; c < g.Campaigns; c++ {
		for a := 0; a < g.AdsPerC; a++ {
			kv.Set("ad:"+adID(c, a), "campaign:"+strconv.Itoa(c))
		}
	}
}

func adID(campaign, ad int) string {
	return fmt.Sprintf("%d-%d", campaign, ad)
}

// Next produces one JSON-encoded event.
func (g *AdEventGen) Next(now time.Time) []byte {
	c := g.rng.Intn(g.Campaigns)
	ev := AdEvent{
		UserID:    strconv.Itoa(g.rng.Intn(100000)),
		PageID:    strconv.Itoa(g.rng.Intn(1000)),
		AdID:      adID(c, g.rng.Intn(g.AdsPerC)),
		AdType:    "banner",
		EventType: g.types[g.rng.Intn(len(g.types))],
		EventTime: now.UnixMilli(),
		IPAddress: "10.0.0.1",
	}
	b, err := json.Marshal(ev)
	if err != nil {
		panic("workload: unmarshalable ad event: " + err.Error())
	}
	return b
}

// Produce appends n events to the log.
func (g *AdEventGen) Produce(log *kafkasim.Log, n int, now time.Time) {
	for i := 0; i < n; i++ {
		log.Produce(g.Next(now))
	}
}

// KafkaClient is the pipeline's source: it polls the emulated Kafka log
// and emits raw event records.
type KafkaClient struct {
	consumer *kafkasim.Consumer
	stats    *Stats
}

// Open implements worker.Component.
func (k *KafkaClient) Open(ctx *worker.Context) error {
	k.stats, _ = env(ctx)
	log, _ := ctx.Env().Get(EnvKafka).(*kafkasim.Log)
	if log == nil {
		return fmt.Errorf("workload: no kafka log in environment")
	}
	k.consumer = log.NewConsumer()
	return nil
}

// Close implements worker.Component.
func (k *KafkaClient) Close(*worker.Context) error { return nil }

// Next implements worker.Spout.
func (k *KafkaClient) Next(ctx *worker.Context) (bool, error) {
	records := k.consumer.Poll(32)
	if len(records) == 0 {
		return false, nil
	}
	for _, r := range records {
		ctx.Emit(tuple.Bytes(r))
	}
	k.stats.Counter("yahoo.consumed").Add(uint64(len(records)))
	return true, nil
}

// Parse deserializes raw events into (ad_id, event_type, event_time).
type Parse struct{ tl *metrics.Timeline }

// Open implements worker.Component.
func (p *Parse) Open(ctx *worker.Context) error {
	st, _ := env(ctx)
	p.tl = st.Timeline(fmt.Sprintf("parse/%d", ctx.WorkerID()))
	return nil
}

// Close implements worker.Component.
func (p *Parse) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (p *Parse) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	var ev AdEvent
	if err := json.Unmarshal(in.Field(0).AsBytes(), &ev); err != nil {
		return nil // malformed input records are dropped, not fatal
	}
	ctx.Emit(tuple.String(ev.AdID), tuple.String(ev.EventType), tuple.Int(ev.EventTime))
	p.tl.Add(time.Now(), 1)
	return nil
}

// Filter keeps events whose type is allowed; swapping the filter logic at
// runtime is the Fig 14 experiment.
type Filter struct {
	allow map[string]bool
	stats *Stats
}

// Open implements worker.Component.
func (f *Filter) Open(ctx *worker.Context) error {
	f.stats, _ = env(ctx)
	return nil
}

// Close implements worker.Component.
func (f *Filter) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (f *Filter) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	if !f.allow[in.Field(1).AsString()] {
		f.stats.Counter("yahoo.filtered").Inc()
		return nil
	}
	ctx.Emit(in.Values...)
	return nil
}

// Projection keeps (ad_id, event_time).
type Projection struct{}

// Open implements worker.Component.
func (Projection) Open(*worker.Context) error { return nil }

// Close implements worker.Component.
func (Projection) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (Projection) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	ctx.Emit(in.Field(0), in.Field(2))
	return nil
}

// Join resolves ad_id → campaign_id through the KV store, caching lookups
// locally (the benchmark's join bolt keeps a local cache).
type Join struct {
	kv    *kvstore.Store
	cache map[string]string
	stats *Stats
}

// Open implements worker.Component.
func (j *Join) Open(ctx *worker.Context) error {
	j.stats, _ = env(ctx)
	j.kv, _ = ctx.Env().Get(EnvKV).(*kvstore.Store)
	if j.kv == nil {
		return fmt.Errorf("workload: no kv store in environment")
	}
	j.cache = make(map[string]string)
	return nil
}

// Close implements worker.Component.
func (j *Join) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (j *Join) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		j.cache = make(map[string]string) // flush local cache
		return nil
	}
	ad := in.Field(0).AsString()
	campaign, ok := j.cache[ad]
	if !ok {
		campaign, ok = j.kv.Get("ad:" + ad)
		if !ok {
			j.stats.Counter("yahoo.join.misses").Inc()
			return nil
		}
		j.cache[ad] = campaign
	}
	ctx.Emit(tuple.String(campaign), in.Field(1))
	return nil
}

// AggStore is the stateful sink: it aggregates per-campaign counts in
// event-time windows in memory, flushing each window to the KV store when
// the window advances (or a SIGNAL arrives).
type AggStore struct {
	kv     *kvstore.Store
	stats  *Stats
	tl     *metrics.Timeline
	window int64
	curWin int64
	counts map[string]int64 // "campaign|window" -> count
}

// Open implements worker.Component.
func (a *AggStore) Open(ctx *worker.Context) error {
	st, cfg := env(ctx)
	a.stats = st
	a.tl = st.Timeline(fmt.Sprintf("agg/%d", ctx.WorkerID()))
	a.kv, _ = ctx.Env().Get(EnvKV).(*kvstore.Store)
	if a.kv == nil {
		return fmt.Errorf("workload: no kv store in environment")
	}
	a.window = cfg.Get(CfgWindowMillis, 10000)
	a.counts = make(map[string]int64)
	return nil
}

// Close implements worker.Component.
func (a *AggStore) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (a *AggStore) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		a.flush()
		return nil
	}
	campaign := in.Field(0).AsString()
	win := in.Field(1).AsInt() / a.window
	// Window advance closes the previous window into the store.
	if a.curWin != 0 && win > a.curWin {
		a.flush()
	}
	if win > a.curWin {
		a.curWin = win
	}
	a.counts[campaign+"|"+strconv.FormatInt(win, 10)]++
	a.tl.Add(time.Now(), 1)
	a.stats.Counter("yahoo.agg.total").Inc()
	if len(a.counts) > 4096 {
		a.flush()
	}
	return nil
}

func (a *AggStore) flush() {
	for key, n := range a.counts {
		a.kv.Incr("window:"+key, n)
	}
	a.counts = make(map[string]int64)
	a.stats.Counter("yahoo.agg.flushes").Inc()
}
