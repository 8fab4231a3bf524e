package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("value = %d", c.Value())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8010 {
		t.Fatalf("concurrent value = %d", c.Value())
	}
}

func TestTimelineBucketing(t *testing.T) {
	start := time.Unix(1000, 0)
	tl := NewTimeline(start, time.Second)
	tl.Add(start, 1)
	tl.Add(start.Add(500*time.Millisecond), 2)
	tl.Add(start.Add(2*time.Second), 5)
	tl.Add(start.Add(-time.Hour), 100) // clamped to bucket 0
	s := tl.Series()
	if len(s) != 3 || s[0] != 103 || s[1] != 0 || s[2] != 5 {
		t.Fatalf("series = %v", s)
	}
	if tl.Interval() != time.Second || !tl.Start().Equal(start) {
		t.Fatal("accessors")
	}
}

func TestTimelineRates(t *testing.T) {
	start := time.Unix(0, 0)
	tl := NewTimeline(start, 100*time.Millisecond)
	tl.Add(start, 10)
	r := tl.Rates()
	if len(r) != 1 || r[0] != 100 { // 10 per 100ms = 100/s
		t.Fatalf("rates = %v", r)
	}
	if NewTimeline(start, 0).Interval() != time.Second {
		t.Fatal("default interval")
	}
}

// TestTimelineBucketCap pins the fix for unbounded bucket growth: one
// far-future sample must not allocate buckets out to its index.
func TestTimelineBucketCap(t *testing.T) {
	start := time.Unix(1000, 0)
	tl := NewTimelineCapped(start, time.Second, 10)
	tl.Add(start.Add(5*time.Second), 1)
	tl.Add(start.Add(1000*time.Hour), 7) // beyond the cap: dropped
	tl.Add(start.Add(9*time.Second), 2)  // last valid bucket
	tl.Add(start.Add(10*time.Second), 3) // first invalid bucket
	s := tl.Series()
	if len(s) != 10 {
		t.Fatalf("retained %d buckets, want 10", len(s))
	}
	if s[5] != 1 || s[9] != 2 {
		t.Fatalf("series = %v", s)
	}
	if tl.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tl.Dropped())
	}
	// Default constructor gets the week-long default cap.
	def := NewTimeline(start, time.Second)
	def.Add(start.Add(1000000*time.Hour), 1)
	if got := len(def.Series()); got != 0 {
		t.Fatalf("default timeline grew %d buckets from one far-future sample", got)
	}
	if def.Dropped() != 1 {
		t.Fatalf("default dropped = %d", def.Dropped())
	}
}

func TestConcurrentTimeline(t *testing.T) {
	tl := NewTimeline(time.Now(), 10*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				tl.Add(time.Now(), 1)
			}
		}()
	}
	wg.Wait()
	var sum float64
	for _, v := range tl.Series() {
		sum += v
	}
	if sum != 2000 {
		t.Fatalf("timeline sum = %v", sum)
	}
}
