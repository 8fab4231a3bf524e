// Package clock provides a coarse-grained wall clock for data-plane hot
// paths. Per-frame time.Now() calls are one of the dominant fixed costs of a
// software switch pipeline (two vDSO calls per forwarded frame in the
// pre-fast-path switch); flow-rule idle tracking and tuple-path trace hops
// only need millisecond-ish accuracy, so they read a cached timestamp that a
// single background ticker refreshes instead. Its Dozer is the other way
// round: a sleep below a millisecond that ends on time.
package clock

import (
	"sync"
	"sync/atomic"
	"time"
)

// CoarseGranularity is the refresh period of the coarse clock. Readers see
// timestamps at most about this much behind the real wall clock (scheduler
// jitter can stretch it slightly). Flow idle timeouts are tens of
// milliseconds and trace hops are for human inspection, so 500µs of skew is
// invisible to both.
const CoarseGranularity = 500 * time.Microsecond

var (
	coarse    atomic.Int64
	startOnce sync.Once
)

// start launches the refresher goroutine. It runs for the life of the
// process, like the runtime's own background timers; a data plane that has
// touched the clock once keeps it warm forever.
func start() {
	coarse.Store(time.Now().UnixNano())
	go func() {
		t := time.NewTicker(CoarseGranularity)
		defer t.Stop() // unreachable; keeps vet happy about the ticker
		for range t.C {
			coarse.Store(time.Now().UnixNano())
		}
	}()
}

// CoarseUnixNano returns the cached wall-clock time in Unix nanoseconds.
// After the first call it is a single atomic load — no syscall, no vDSO.
func CoarseUnixNano() int64 {
	startOnce.Do(start)
	return coarse.Load()
}

// CoarseNow returns the cached wall-clock time as a time.Time.
func CoarseNow() time.Time {
	return time.Unix(0, CoarseUnixNano())
}
