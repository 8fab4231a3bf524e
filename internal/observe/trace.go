package observe

import (
	"sync"
	"sync/atomic"
	"time"

	"typhoon/internal/metrics"
	"typhoon/internal/packet"
)

// DefaultTraceEvery is the default frame sampling period: one in every
// DefaultTraceEvery data frames a worker emits carries a trace annex.
const DefaultTraceEvery = 256

// Sampler makes the per-frame trace sampling decision. It is shared by all
// transports of a host (or cluster) so the sampled rate is global, and is
// safe for concurrent use.
type Sampler struct {
	every uint64
	n     atomic.Uint64
	next  atomic.Uint64 // trace ID allocator
}

// NewSampler builds a sampler tracing one frame in every. every <= 0
// disables sampling entirely (Sample always returns false).
func NewSampler(every int) *Sampler {
	if every <= 0 {
		return &Sampler{}
	}
	return &Sampler{every: uint64(every)}
}

// Sample reports whether the next frame should carry a trace annex and, if
// so, allocates its trace ID.
func (s *Sampler) Sample() (uint64, bool) {
	if s == nil || s.every == 0 {
		return 0, false
	}
	if s.n.Add(1)%s.every != 0 {
		return 0, false
	}
	return s.next.Add(1), true
}

// TraceRecord is one completed tuple-path trace.
type TraceRecord struct {
	// ID is the trace ID allocated at the sampled emission.
	ID uint64 `json:"id"`
	// Hops are the recorded path stages in traversal order.
	Hops []packet.TraceHop `json:"hops"`
	// CompletedAt is when the receiving worker dequeued the frame.
	CompletedAt time.Time `json:"completedAt"`
}

// E2E returns the emit-to-dequeue span of the trace; ok is false when either
// endpoint hop is missing or they are out of order. A span of zero is a
// real reading: both hops fell inside one tick of the coarse clock.
func (t TraceRecord) E2E() (span time.Duration, ok bool) {
	var first, last int64
	for _, h := range t.Hops {
		if h.Kind == packet.HopEmit && first == 0 {
			first = h.At
		}
		if h.Kind == packet.HopDequeue {
			last = h.At
		}
	}
	if first == 0 || last == 0 || last < first {
		return 0, false
	}
	return time.Duration(last - first), true
}

// TraceLog is a bounded ring of completed traces — the live-debugger's and
// the HTTP API's window into the data plane's recent behaviour.
type TraceLog struct {
	mu    sync.Mutex
	buf   []TraceRecord
	next  int
	total uint64

	e2e *metrics.Histogram // optional: registered by the cluster assembly
}

// DefaultTraceLogCapacity bounds the retained trace window.
const DefaultTraceLogCapacity = 512

// NewTraceLog builds a trace ring; capacity <= 0 selects
// DefaultTraceLogCapacity.
func NewTraceLog(capacity int) *TraceLog {
	if capacity <= 0 {
		capacity = DefaultTraceLogCapacity
	}
	return &TraceLog{buf: make([]TraceRecord, 0, capacity)}
}

// SetLatencyHistogram attaches a histogram that records the emit-to-dequeue
// span of every completed trace that carries both endpoint hops.
func (l *TraceLog) SetLatencyHistogram(h *metrics.Histogram) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.e2e = h
}

// Record stores one completed trace annex. It is the sink receiving-side
// transports call after appending their dequeue hop.
func (l *TraceLog) Record(a packet.TraceAnnex) {
	rec := TraceRecord{ID: a.ID, Hops: a.Hops, CompletedAt: time.Now()}
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, rec)
	} else {
		l.buf[l.next] = rec
		l.next = (l.next + 1) % cap(l.buf)
	}
	l.total++
	h := l.e2e
	l.mu.Unlock()
	if h != nil {
		if span, ok := rec.E2E(); ok {
			h.Record(span)
		}
	}
}

// Total reports how many traces were ever recorded (including evicted).
func (l *TraceLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Recent returns up to n traces, most recent first. n <= 0 returns all
// retained traces.
func (l *TraceLog) Recent(n int) []TraceRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := len(l.buf)
	if size == 0 {
		return nil
	}
	if n <= 0 || n > size {
		n = size
	}
	start := 0 // oldest slot; l.next once the ring has wrapped
	if size == cap(l.buf) {
		start = l.next
	}
	out := make([]TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, l.buf[(start+size-1-i)%size])
	}
	return out
}
