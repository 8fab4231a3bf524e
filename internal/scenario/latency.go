package scenario

import (
	"sync"
	"time"

	"typhoon/internal/metrics"
)

// Trajectory accumulates latencies into per-interval histograms over the
// run clock plus one overall histogram, yielding percentile trajectories
// (p50/p99/p999 over time) rather than a single end-of-run summary.
type Trajectory struct {
	mu       sync.Mutex
	interval time.Duration
	slots    []*metrics.Histogram
	overall  metrics.Histogram
}

// NewTrajectory builds a trajectory sampled at the given interval.
func NewTrajectory(interval time.Duration) *Trajectory {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Trajectory{interval: interval}
}

// Record adds one latency observed at run-clock offset at.
func (t *Trajectory) Record(at time.Duration, lat time.Duration) {
	if at < 0 {
		at = 0
	}
	slot := int(at / t.interval)
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.slots) <= slot {
		t.slots = append(t.slots, nil)
	}
	if t.slots[slot] == nil {
		t.slots[slot] = &metrics.Histogram{}
	}
	t.slots[slot].Record(lat)
	t.overall.Record(lat)
}

// TrajPoint is one sampled interval of a latency trajectory.
type TrajPoint struct {
	// TSec is the interval's start offset from the run start, seconds.
	TSec float64 `json:"tSec"`
	// Count is the observations in the interval.
	Count int64 `json:"count"`
	// Percentiles and max over the interval, milliseconds.
	P50ms  float64 `json:"p50ms"`
	P99ms  float64 `json:"p99ms"`
	P999ms float64 `json:"p999ms"`
	MaxMs  float64 `json:"maxMs"`
}

// LatencyReport is a trajectory rendered for the run report: overall
// percentiles plus the per-interval trajectory.
type LatencyReport struct {
	Count      int64       `json:"count"`
	P50ms      float64     `json:"p50ms"`
	P99ms      float64     `json:"p99ms"`
	P999ms     float64     `json:"p999ms"`
	MaxMs      float64     `json:"maxMs"`
	Trajectory []TrajPoint `json:"trajectory"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Report renders the trajectory.
func (t *Trajectory) Report() LatencyReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := LatencyReport{
		Count:  int64(t.overall.Count()),
		P50ms:  ms(t.overall.Quantile(0.50)),
		P99ms:  ms(t.overall.Quantile(0.99)),
		P999ms: ms(t.overall.Quantile(0.999)),
		MaxMs:  ms(t.overall.Max()),
	}
	for i, h := range t.slots {
		if h == nil {
			continue
		}
		r.Trajectory = append(r.Trajectory, TrajPoint{
			TSec:   float64(time.Duration(i)*t.interval) / float64(time.Second),
			Count:  int64(h.Count()),
			P50ms:  ms(h.Quantile(0.50)),
			P99ms:  ms(h.Quantile(0.99)),
			P999ms: ms(h.Quantile(0.999)),
			MaxMs:  ms(h.Max()),
		})
	}
	return r
}
