package worker

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// RateLimiter is a token bucket used by the input rate controller of the
// I/O layer (INPUT_RATE control tuples adjust it at runtime). With no rate
// set, Allow and take answer from one atomic flag and never take the mutex.
type RateLimiter struct {
	limited atomic.Bool // rate > 0; written under mu

	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 means unlimited
	tokens float64
	burst  float64
	last   time.Time
}

// NewRateLimiter builds a limiter; rate <= 0 means unlimited.
func NewRateLimiter(rate float64) *RateLimiter {
	l := &RateLimiter{last: time.Now()}
	l.SetRate(rate)
	return l
}

// SetRate changes the sustained rate; <= 0 disables limiting.
func (l *RateLimiter) SetRate(rate float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rate = rate
	l.limited.Store(rate > 0)
	l.burst = rate / 100
	if l.burst < 1 {
		l.burst = 1
	}
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
}

// Rate returns the configured rate.
func (l *RateLimiter) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

// Allow consumes one token if available.
func (l *RateLimiter) Allow() bool { return l.take() == 0 }

// take consumes one token and returns 0 if one is available; otherwise it
// consumes nothing and returns how long until the next token accrues.
func (l *RateLimiter) take() time.Duration {
	if !l.limited.Load() {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate <= 0 {
		return 0
	}
	now := time.Now()
	l.tokens += l.rate * now.Sub(l.last).Seconds()
	l.last = now
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	if l.tokens >= 1 {
		l.tokens--
		return 0
	}
	// Round up so one timed wait is enough; the cap keeps a vanishing rate
	// from overflowing the duration (the caller asks again after waiting).
	secs := math.Min((1-l.tokens)/l.rate, 3600)
	return time.Duration(secs*float64(time.Second)) + 1
}
