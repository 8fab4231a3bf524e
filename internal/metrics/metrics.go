// Package metrics provides the measurement primitives the evaluation
// harness, the worker statistics reporter, the scenario runner and the
// /metrics registry share: counters, windowed throughput timelines, and
// the one latency distribution (Figs 8, 10-12 and 14 are all built from
// these).
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Timeline buckets event counts into fixed intervals from a start time,
// producing the per-second throughput series plotted in Figs 10-12 and 14.
// The bucket array is bounded by MaxBuckets: a single sample with a far-
// future timestamp (a clock jump, a stray frame) can no longer allocate
// gigabytes of empty buckets.
type Timeline struct {
	start    time.Time
	interval time.Duration
	max      int

	mu      sync.Mutex
	buckets []float64
	dropped uint64
}

// MaxBuckets is the default cap on a timeline's bucket count — one week of
// one-second buckets, far beyond any experiment run.
const MaxBuckets = 7 * 24 * 3600

// NewTimeline builds a timeline starting at start with the given bucket
// width; interval <= 0 selects one second. The bucket count is capped at
// MaxBuckets; use NewTimelineCapped for a custom cap.
func NewTimeline(start time.Time, interval time.Duration) *Timeline {
	return NewTimelineCapped(start, interval, 0)
}

// NewTimelineCapped builds a timeline holding at most maxBuckets buckets;
// maxBuckets <= 0 selects MaxBuckets.
func NewTimelineCapped(start time.Time, interval time.Duration, maxBuckets int) *Timeline {
	if interval <= 0 {
		interval = time.Second
	}
	if maxBuckets <= 0 {
		maxBuckets = MaxBuckets
	}
	return &Timeline{start: start, interval: interval, max: maxBuckets}
}

// Add records v at time t; times before start are clamped to bucket 0, and
// samples beyond the bucket cap are counted in Dropped instead of growing
// the array.
func (tl *Timeline) Add(t time.Time, v float64) {
	idx := int(t.Sub(tl.start) / tl.interval)
	if idx < 0 {
		idx = 0
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if idx >= tl.max {
		tl.dropped++
		return
	}
	for len(tl.buckets) <= idx {
		tl.buckets = append(tl.buckets, 0)
	}
	tl.buckets[idx] += v
}

// Dropped reports samples rejected for falling beyond the bucket cap.
func (tl *Timeline) Dropped() uint64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return tl.dropped
}

// Series returns a copy of the bucket values.
func (tl *Timeline) Series() []float64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make([]float64, len(tl.buckets))
	copy(out, tl.buckets)
	return out
}

// Rates converts bucket counts into per-second rates.
func (tl *Timeline) Rates() []float64 {
	s := tl.Series()
	perSec := float64(time.Second) / float64(tl.interval)
	for i := range s {
		s[i] *= perSec
	}
	return s
}

// Interval returns the bucket width.
func (tl *Timeline) Interval() time.Duration { return tl.interval }

// Start returns the timeline origin.
func (tl *Timeline) Start() time.Time { return tl.start }
