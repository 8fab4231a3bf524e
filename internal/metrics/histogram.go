package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Bucket layout: histBuckets log-spaced buckets from histMin to histMax,
// each histGrowth (×1.155) wide, so a bucket's geometric midpoint is within
// 8 % of every value in it. Bucket 0 also takes everything at or below
// histMin (negatives included), the last bucket everything above histMax.
const (
	histBuckets = 128
	histMin     = float64(time.Microsecond)
	histMax     = float64(100 * time.Second)
)

var (
	histGrowth    = math.Pow(histMax/histMin, 1.0/histBuckets)
	histLogGrowth = math.Log(histGrowth)
)

// leBounds are the cumulative upper bounds a Snapshot exposes, in seconds:
// every leStride-th bucket edge (two per decade, √10 apart), written to three
// digits so the labels built from them are short and never change. Samples
// above the last bound are covered by the snapshot's Count alone.
var leBounds = [...]float64{
	3.16e-6, 1e-5, 3.16e-5, 1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2,
	3.16e-2, 0.1, 0.316, 1, 3.16, 10, 31.6,
}

const leStride = histBuckets / (len(leBounds) + 1)

// Histogram is the one latency distribution: Fig 8c/8d's CDF, the scenario
// trajectories, BENCH_e2e.json and the /metrics histogram families all read
// it, so a percentile means the same thing wherever it is printed. Memory
// is constant; Record is lock-free and safe to call while other goroutines
// read. The zero value is ready to use; a Histogram must not be copied
// after first use.
type Histogram struct {
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
	bucket [histBuckets]atomic.Uint64
}

// bucketOf returns the index of the bucket holding d.
func bucketOf(d time.Duration) int {
	f := float64(d)
	if f <= histMin {
		return 0
	}
	if i := int(math.Log(f/histMin) / histLogGrowth); i < histBuckets {
		return i
	}
	return histBuckets - 1
}

// Record adds one sample; a negative d counts as zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// The bucket goes last: a reader that counts this sample also sees
	// its sum and a max at least as large.
	h.sum.Add(int64(d))
	for {
		m := h.max.Load()
		if int64(d) <= m || h.max.CompareAndSwap(m, int64(d)) {
			break
		}
	}
	h.bucket[bucketOf(d)].Add(1)
}

// load copies the bucket counts and returns their total.
func (h *Histogram) load() (b [histBuckets]uint64, n uint64) {
	for i := range b {
		b[i] = h.bucket[i].Load()
		n += b[i]
	}
	return b, n
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 {
	_, n := h.load()
	return n
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest sample, exactly.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the q-quantile (0..1): the geometric midpoint of the
// bucket holding the sample of rank ⌊q·Count⌋ (zero-based, ascending),
// never above Max. Quantile(1) is Max; an empty histogram returns zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	b, n := h.load()
	if n == 0 {
		return 0
	}
	max := h.Max()
	if q >= 1 {
		return max
	}
	rank := uint64(math.Max(q, 0) * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen uint64
	for i, c := range b {
		seen += c
		if seen > rank {
			mid := time.Duration(histMin * math.Pow(histGrowth, float64(i)+0.5))
			if mid < max {
				return mid
			}
			break
		}
	}
	return max
}

// HistogramSnapshot is a point-in-time copy of a histogram, re-read on the
// exposed bounds for /metrics and /api/v1/metrics.
type HistogramSnapshot struct {
	// Buckets are the upper bounds, in seconds.
	Buckets []float64 `json:"buckets"`
	// Counts are per-bound (non-cumulative) sample counts.
	Counts []uint64 `json:"counts"`
	// Sum is the sum of all samples, in seconds.
	Sum float64 `json:"sum"`
	// Count is the total number of samples.
	Count uint64 `json:"count"`
}

// Snapshot copies the histogram onto the exposed bounds. Each bound is one
// of the histogram's own bucket edges, so every count is exact.
func (h *Histogram) Snapshot() HistogramSnapshot {
	b, n := h.load()
	s := HistogramSnapshot{
		Buckets: append([]float64(nil), leBounds[:]...),
		Counts:  make([]uint64, len(leBounds)),
		Sum:     h.Sum().Seconds(),
		Count:   n,
	}
	for i, c := range b[:len(leBounds)*leStride] {
		s.Counts[i/leStride] += c
	}
	return s
}
