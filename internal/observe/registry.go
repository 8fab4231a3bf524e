// Package observe is Typhoon's cluster-wide observability layer: a live,
// queryable view of a running cluster that the paper's control-plane apps
// (§4) and external tooling share.
//
// It has three parts:
//
//   - A hierarchical metric registry (Registry): every switch, worker
//     agent, worker, coordinator and controller registers counters, gauges
//     and latency histograms keyed by host/node/worker labels. Components
//     with hot-path atomic counters register read-only funcs or collectors,
//     so registration adds no cost to the data path — the registry polls at
//     scrape time.
//
//   - Tuple-path tracing (TraceLog): sampled data-plane frames carry a hop
//     annex (internal/packet trace annex) recording ingress port, flow-rule
//     match, egress/replication and worker dequeue; completed traces land
//     in a ring buffer the HTTP API exposes (/api/v1/traces).
//
//   - An HTTP exposition endpoint (Handler): Prometheus text format on
//     /metrics, JSON on /api/*, and net/http/pprof under /debug/pprof/.
//
// The registry deliberately speaks the Prometheus text exposition format
// with nothing but the standard library, mirroring how the prototype's
// METRIC_REQ/RESP control tuples made cross-layer statistics available to
// any consumer.
package observe

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"typhoon/internal/metrics"
)

// Kind classifies a metric series for exposition.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Labels key one series within a metric family; the hierarchy host → node →
// worker is expressed as labels so any level can be aggregated over.
type Labels map[string]string

// canonical renders labels sorted as {k="v",...} (empty for no labels),
// which doubles as the series key and the exposition suffix.
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// merged returns a copy of l with overrides applied.
func (l Labels) merged(over Labels) Labels {
	out := make(Labels, len(l)+len(over))
	for k, v := range l {
		out[k] = v
	}
	for k, v := range over {
		out[k] = v
	}
	return out
}

// Gauge is a settable instantaneous metric owned by the registry.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Sample is one scraped series value.
type Sample struct {
	// Name is the metric family name (e.g. typhoon_switch_tx_frames_total).
	Name string `json:"name"`
	// Kind is the family's exposition type.
	Kind Kind `json:"-"`
	// Help is the family's one-line description.
	Help string `json:"-"`
	// Labels key the series within the family.
	Labels Labels `json:"labels,omitempty"`
	// Value is the sample value (counters and gauges).
	Value float64 `json:"value"`
	// Hist is non-nil for histogram samples.
	Hist *metrics.HistogramSnapshot `json:"hist,omitempty"`
}

// series is one registered metric instance.
type series struct {
	name   string
	kind   Kind
	help   string
	labels Labels
	key    string // labels.canonical()

	read  func() float64     // counter / gauge value at scrape time
	hist  *metrics.Histogram // histogram state (read is nil)
	owned any                // registry-owned *metrics.Counter / *Gauge, if any
}

// Registry is a concurrency-safe metric registry. All registration methods
// are idempotent for an identical (name, labels) pair: re-registering
// returns the existing instrument, so restarted components reattach to
// their series instead of erroring.
type Registry struct {
	mu         sync.RWMutex
	families   map[string]*family
	collectors []func(emit func(Sample))
}

type family struct {
	kind   Kind
	help   string
	series map[string]*series
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) register(name string, kind Kind, help string, labels Labels) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{kind: kind, help: help, series: make(map[string]*series)}
		r.families[name] = f
	}
	key := labels.canonical()
	s := f.series[key]
	if s == nil {
		s = &series{name: name, kind: kind, help: help, labels: labels.merged(nil), key: key}
		f.series[key] = s
	}
	return s
}

// Counter registers (or retrieves) a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *metrics.Counter {
	s := r.register(name, KindCounter, help, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.read == nil {
		c := &metrics.Counter{}
		s.read = func() float64 { return float64(c.Value()) }
		s.hist = nil
		s.owned = c
	}
	c, _ := s.owned.(*metrics.Counter)
	return c
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the zero-hot-path-cost pattern for components that already
// maintain atomic counters.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	s := r.register(name, KindCounter, help, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.read = func() float64 { return float64(fn()) }
}

// Gauge registers (or retrieves) a settable gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.register(name, KindGauge, help, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.read == nil {
		g := &Gauge{}
		s.read = g.Value
		s.owned = g
	}
	g, _ := s.owned.(*Gauge)
	return g
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	s := r.register(name, KindGauge, help, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.read = fn
}

// Histogram registers (or retrieves) a latency histogram series.
func (r *Registry) Histogram(name, help string, labels Labels) *metrics.Histogram {
	s := r.register(name, KindHistogram, help, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hist == nil {
		s.hist = &metrics.Histogram{}
		s.read = nil
	}
	return s.hist
}

// AddCollector installs a scrape-time callback that emits samples for
// series whose population is dynamic (per-port counters of a switch whose
// ports come and go, per-worker stats from the controller's METRIC_RESP
// cache). Collectors run on every scrape, after registered series.
func (r *Registry) AddCollector(fn func(emit func(Sample))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Unregister removes one series; removing the last series of a family
// removes the family. It is how agents retire per-worker series when a
// worker is killed or rescheduled away.
func (r *Registry) Unregister(name string, labels Labels) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		return
	}
	delete(f.series, labels.canonical())
	if len(f.series) == 0 {
		delete(r.families, name)
	}
}

// Snapshot scrapes every registered series and collector into a flat,
// deterministically ordered sample list.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	var out []Sample
	for name, f := range r.families {
		for _, s := range f.series {
			smp := Sample{Name: name, Kind: f.kind, Help: f.help, Labels: s.labels}
			if s.hist != nil {
				h := s.hist.Snapshot()
				smp.Hist = &h
			} else if s.read != nil {
				smp.Value = s.read()
			}
			out = append(out, smp)
		}
	}
	collectors := make([]func(emit func(Sample)), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.RUnlock()
	for _, c := range collectors {
		c(func(s Sample) { out = append(out, s) })
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels.canonical() < out[j].Labels.canonical()
	})
	return out
}

// WritePrometheus writes the registry contents in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.Snapshot()
	var lastName string
	for _, s := range samples {
		if s.Name != lastName {
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
			lastName = s.Name
		}
		if s.Hist != nil {
			if err := writeHistogram(w, s); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, s.Labels.canonical(), formatValue(s.Value)); err != nil {
			return err
		}
	}
	return nil
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func writeHistogram(w io.Writer, s Sample) error {
	h := s.Hist
	cum := uint64(0)
	for i, ub := range h.Buckets {
		cum += h.Counts[i]
		ls := s.Labels.merged(Labels{"le": formatValue(ub)})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, ls.canonical(), cum); err != nil {
			return err
		}
	}
	inf := s.Labels.merged(Labels{"le": "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, inf.canonical(), h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, s.Labels.canonical(), formatValue(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, s.Labels.canonical(), h.Count)
	return err
}
