package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// refQuantile is the exact counterpart of Histogram.Quantile: the sample of
// rank ⌊q·n⌋ in the sorted samples, negatives counted as zero.
func refQuantile(sorted []time.Duration, q float64) time.Duration {
	rank := int(q * float64(len(sorted)))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	if sorted[rank] < 0 {
		return 0
	}
	return sorted[rank]
}

func TestHistogramQuantileAgainstSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func(n int, f func() time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = f()
		}
		return out
	}
	cases := []struct {
		name    string
		samples []time.Duration
	}{
		{"uniform", gen(20000, func() time.Duration { return time.Duration(rng.Int63n(int64(50 * time.Millisecond))) })},
		{"log-uniform 1µs…10s", gen(20000, func() time.Duration {
			return time.Duration(float64(time.Microsecond) * math.Pow(1e7, rng.Float64()))
		})},
		{"constant", gen(1000, func() time.Duration { return 730 * time.Microsecond })},
		{"single", []time.Duration{42 * time.Millisecond}},
		{"out of range", []time.Duration{-time.Second, -1, 0, 500, 150 * time.Second, 500 * time.Second}},
	}
	qs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var h Histogram
			var sum time.Duration
			for _, d := range c.samples {
				h.Record(d)
				if d > 0 {
					sum += d
				}
			}
			sorted := append([]time.Duration(nil), c.samples...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			max := sorted[len(sorted)-1]
			if h.Count() != uint64(len(sorted)) || h.Sum() != sum || h.Max() != max {
				t.Fatalf("count/sum/max = %d/%v/%v, want %d/%v/%v", h.Count(), h.Sum(), h.Max(), len(sorted), sum, max)
			}
			var prev time.Duration
			for _, q := range qs {
				got, want := h.Quantile(q), refQuantile(sorted, q)
				off := math.Abs(float64(got-want)) / float64(want)
				if off > 0.08 && bucketOf(got) != bucketOf(want) {
					t.Errorf("Quantile(%v) = %v, exact %v (off by %.1f%%)", q, got, want, 100*off)
				}
				if got < prev || got > max {
					t.Errorf("Quantile(%v) = %v: below Quantile of a smaller q (%v) or above Max (%v)", q, got, prev, max)
				}
				prev = got
			}
			if got := h.Quantile(1); got != max {
				t.Errorf("Quantile(1) = %v, want Max %v", got, max)
			}
		})
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Quantile(1) != 0 || empty.Count() != 0 || empty.Max() != 0 {
		t.Error("an empty histogram should read zero")
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	const writers, each = 4, 50000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 1; j <= each; j++ {
				h.Record(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	// A scrape running beside the writers never counts a sample whose max
	// it cannot see.
	for i := 0; i < 100; i++ {
		if q, s := h.Quantile(0.99), h.Snapshot(); q > h.Max() || s.Count > writers*each {
			t.Errorf("mid-run read: p99 %v above max %v, or count %d too high", q, h.Max(), s.Count)
		}
	}
	wg.Wait()
	if h.Count() != writers*each {
		t.Errorf("count = %d, want %d", h.Count(), writers*each)
	}
	if want := writers * time.Duration(each*(each+1)/2) * time.Microsecond; h.Sum() != want {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
	if h.Max() != each*time.Microsecond {
		t.Errorf("max = %v", h.Max())
	}
}

// The exposed bounds are the histogram's own bucket edges, so a snapshot's
// cumulative counts are the exact number of samples at or below each bound.
func TestHistogramSnapshotCountsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h Histogram
	samples := make([]time.Duration, 5000)
	for i := range samples { // log-uniform 100ns…1000s: both ends overflow the layout
		samples[i] = time.Duration(100 * math.Pow(1e10, rng.Float64()))
		h.Record(samples[i])
	}
	s := h.Snapshot()
	if len(s.Buckets) != 15 || len(s.Counts) != len(s.Buckets) || s.Count != uint64(len(samples)) {
		t.Fatalf("snapshot shape: %d bounds, %d counts, count %d", len(s.Buckets), len(s.Counts), s.Count)
	}
	if math.Abs(s.Sum-h.Sum().Seconds()) > 1e-9 {
		t.Errorf("sum = %v s, want %v", s.Sum, h.Sum().Seconds())
	}
	var cum uint64
	for k, ub := range s.Buckets {
		edge := histMin * math.Pow(histGrowth, float64((k+1)*leStride)) // ns
		if math.Abs(ub*1e9-edge)/edge > 1e-3 {
			t.Errorf("bound %d = %v s, but the bucket edge is %v ns", k, ub, edge)
		}
		var want uint64
		for _, d := range samples {
			if float64(d) < edge {
				want++
			}
		}
		if cum += s.Counts[k]; cum != want {
			t.Errorf("cumulative count at le=%v is %d, exact %d", ub, cum, want)
		}
	}
	if cum >= s.Count {
		t.Errorf("no sample above the last bound (%d of %d): the +Inf bucket is untested", cum, s.Count)
	}
}

var sinkDuration time.Duration

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i&0xfffff) * time.Microsecond)
	}
	sinkDuration = h.Quantile(0.5)
}
