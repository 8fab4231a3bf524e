package observe

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"typhoon/internal/metrics"
	"typhoon/internal/packet"
)

// TestRegistryConcurrency hammers registration, instrument updates and
// scraping from parallel goroutines; run with -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers = 8
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			labels := Labels{"worker": fmt.Sprint(i)}
			for j := 0; j < 200; j++ {
				c := r.Counter("typhoon_test_ops_total", "ops", labels)
				c.Inc()
				g := r.Gauge("typhoon_test_queue", "queue", labels)
				g.Set(float64(j))
				h := r.Histogram("typhoon_test_latency_seconds", "lat", labels)
				h.Record(time.Duration(j) * time.Millisecond)
				r.GaugeFunc("typhoon_test_live", "live", labels, func() float64 { return 1 })
			}
		}(i)
	}
	// Concurrent scrapers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()

	// Every worker's counter must have exactly its 200 increments.
	for i := 0; i < workers; i++ {
		c := r.Counter("typhoon_test_ops_total", "ops", Labels{"worker": fmt.Sprint(i)})
		if c.Value() != 200 {
			t.Fatalf("worker %d counter = %d, want 200", i, c.Value())
		}
	}
}

// TestWritePrometheusGolden pins the exposition format byte for byte.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("typhoon_switch_tx_frames_total", "Frames delivered to ports.", Labels{"host": "h1"}).Add(42)
	r.Counter("typhoon_switch_tx_frames_total", "Frames delivered to ports.", Labels{"host": "h2"}).Add(7)
	r.Gauge("typhoon_worker_queue_frames", "Worker input backlog.", Labels{"host": "h1", "worker": "3"}).Set(5)
	r.GaugeFunc("typhoon_controller_datapaths", "Connected switches.", nil, func() float64 { return 2 })
	h := r.Histogram("typhoon_trace_e2e_seconds", "Emit-to-dequeue trace span.", nil)
	h.Record(500 * time.Microsecond)
	h.Record(2 * time.Millisecond)
	h.Record(5 * time.Second)
	h.Record(time.Minute) // above the last bound: only +Inf covers it

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP typhoon_controller_datapaths Connected switches.
# TYPE typhoon_controller_datapaths gauge
typhoon_controller_datapaths 2
# HELP typhoon_switch_tx_frames_total Frames delivered to ports.
# TYPE typhoon_switch_tx_frames_total counter
typhoon_switch_tx_frames_total{host="h1"} 42
typhoon_switch_tx_frames_total{host="h2"} 7
# HELP typhoon_trace_e2e_seconds Emit-to-dequeue trace span.
# TYPE typhoon_trace_e2e_seconds histogram
typhoon_trace_e2e_seconds_bucket{le="3.16e-06"} 0
typhoon_trace_e2e_seconds_bucket{le="1e-05"} 0
typhoon_trace_e2e_seconds_bucket{le="3.16e-05"} 0
typhoon_trace_e2e_seconds_bucket{le="0.0001"} 0
typhoon_trace_e2e_seconds_bucket{le="0.000316"} 0
typhoon_trace_e2e_seconds_bucket{le="0.001"} 1
typhoon_trace_e2e_seconds_bucket{le="0.00316"} 2
typhoon_trace_e2e_seconds_bucket{le="0.01"} 2
typhoon_trace_e2e_seconds_bucket{le="0.0316"} 2
typhoon_trace_e2e_seconds_bucket{le="0.1"} 2
typhoon_trace_e2e_seconds_bucket{le="0.316"} 2
typhoon_trace_e2e_seconds_bucket{le="1"} 2
typhoon_trace_e2e_seconds_bucket{le="3.16"} 2
typhoon_trace_e2e_seconds_bucket{le="10"} 3
typhoon_trace_e2e_seconds_bucket{le="31.6"} 3
typhoon_trace_e2e_seconds_bucket{le="+Inf"} 4
typhoon_trace_e2e_seconds_sum 65.0025
typhoon_trace_e2e_seconds_count 4
# HELP typhoon_worker_queue_frames Worker input backlog.
# TYPE typhoon_worker_queue_frames gauge
typhoon_worker_queue_frames{host="h1",worker="3"} 5
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestHistogramExpositionCumulative: whatever was recorded, the bucket lines
// never decrease and the +Inf line equals _count.
func TestHistogramExpositionCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("typhoon_x_seconds", "x", nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ { // log-uniform 100ns…1000s
		h.Record(time.Duration(100 * math.Pow(1e10, rng.Float64())))
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var prev, buckets uint64
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "typhoon_x_seconds_bucket{") {
			continue
		}
		var n uint64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &n); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if n < prev {
			t.Errorf("%q: cumulative count fell from %d", line, prev)
		}
		prev = n
		buckets++
	}
	if buckets != 16 || prev != 1000 || !strings.Contains(sb.String(), "typhoon_x_seconds_count 1000\n") {
		t.Fatalf("%d bucket lines, +Inf = %d, want 16 lines ending at the count of 1000:\n%s", buckets, prev, sb.String())
	}
}

func TestRegistryUnregister(t *testing.T) {
	r := NewRegistry()
	r.Counter("typhoon_x_total", "x", Labels{"worker": "1"}).Inc()
	r.Counter("typhoon_x_total", "x", Labels{"worker": "2"}).Inc()
	r.Unregister("typhoon_x_total", Labels{"worker": "1"})
	var sb strings.Builder
	_ = r.WritePrometheus(&sb)
	if strings.Contains(sb.String(), `worker="1"`) {
		t.Fatal("unregistered series still exposed")
	}
	if !strings.Contains(sb.String(), `worker="2"`) {
		t.Fatal("surviving series lost")
	}
}

func TestCollectorAndHandler(t *testing.T) {
	r := NewRegistry()
	r.AddCollector(func(emit func(Sample)) {
		emit(Sample{
			Name: "typhoon_switch_port_queue_frames", Kind: KindGauge,
			Help:   "Frames queued toward the port's device.",
			Labels: Labels{"host": "h1", "port": "1"}, Value: 9,
		})
	})
	srv := httptest.NewServer(Handler(ServerOptions{Registry: r}))
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	if !strings.Contains(body, `typhoon_switch_port_queue_frames{host="h1",port="1"} 9`) {
		t.Fatalf("collector sample missing from scrape:\n%s", body)
	}
	if !strings.Contains(httpGet(t, srv.URL+"/debug/pprof/cmdline"), "") {
		t.Fatal("pprof route missing")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestTraceLogRing(t *testing.T) {
	l := NewTraceLog(4)
	for i := 1; i <= 6; i++ {
		l.Record(packet.TraceAnnex{ID: uint64(i), Hops: []packet.TraceHop{
			{Kind: packet.HopEmit, At: 100},
			{Kind: packet.HopDequeue, At: 100 + int64(i)*1000},
		}})
	}
	if l.Total() != 6 {
		t.Fatalf("total = %d", l.Total())
	}
	recent := l.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("retained %d traces", len(recent))
	}
	// Most recent first: IDs 6,5,4,3.
	for i, want := range []uint64{6, 5, 4, 3} {
		if recent[i].ID != want {
			t.Fatalf("recent[%d].ID = %d, want %d", i, recent[i].ID, want)
		}
	}
	if got, ok := recent[0].E2E(); !ok || got != 6*time.Microsecond {
		t.Fatalf("e2e span = %v, %v", got, ok)
	}
	if got := l.Recent(2); len(got) != 2 || got[0].ID != 6 {
		t.Fatalf("Recent(2) = %+v", got)
	}
}

// TestTraceLogRecordsSubTickSpan: a trace whose emit and dequeue hops fall in
// the same coarse-clock tick is a zero span, not a missing one, so the
// latency histogram counts it; a trace that never reached a dequeue is the
// one that is skipped.
func TestTraceLogRecordsSubTickSpan(t *testing.T) {
	l := NewTraceLog(4)
	h := &metrics.Histogram{}
	l.SetLatencyHistogram(h)
	l.Record(packet.TraceAnnex{ID: 1, Hops: []packet.TraceHop{
		{Kind: packet.HopEmit, At: 1000},
		{Kind: packet.HopDequeue, At: 1000},
	}})
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatalf("sub-tick span: count = %d, max = %v; want one zero-length observation", h.Count(), h.Max())
	}
	l.Record(packet.TraceAnnex{ID: 2, Hops: []packet.TraceHop{
		{Kind: packet.HopEmit, At: 1000},
		{Kind: packet.HopSwitchIn, At: 2000},
	}})
	if h.Count() != 1 || l.Total() != 2 {
		t.Fatalf("trace without a dequeue hop: histogram count = %d (want 1), traces = %d (want 2)", h.Count(), l.Total())
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(4)
	hits := 0
	for i := 0; i < 40; i++ {
		if _, ok := s.Sample(); ok {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("sampled %d of 40 with period 4", hits)
	}
	var disabled *Sampler
	if _, ok := disabled.Sample(); ok {
		t.Fatal("nil sampler sampled")
	}
	if _, ok := NewSampler(0).Sample(); ok {
		t.Fatal("disabled sampler sampled")
	}
}
