// Package ring provides bounded frame queues that stand in for the DPDK
// shared-memory ring ports connecting workers to the software SDN switch in
// the Typhoon prototype.
//
// Rings are deliberately lossy on the enqueue side: when a TX/RX queue
// overflows, frames are dropped and counted, reproducing the switch-level
// packet loss behaviour discussed in §8 of the paper (recovered, when it
// matters, by the application-level ACK mechanism).
package ring

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by blocking operations on a closed ring.
var ErrClosed = errors.New("ring: closed")

// ErrFull is returned by EnqueueTimeout when the ring stays full past the
// deadline.
var ErrFull = errors.New("ring: full")

// DefaultCapacity is the default ring size in frames.
const DefaultCapacity = 4096

// Stats is a snapshot of ring counters.
type Stats struct {
	Enqueued uint64 // frames accepted
	Dropped  uint64 // frames rejected because the ring was full
	Bytes    uint64 // payload bytes accepted
}

// Ring is a bounded multi-producer multi-consumer frame queue.
type Ring struct {
	ch       chan []byte
	closed   chan struct{}
	closeOne sync.Once

	enqueued atomic.Uint64
	dropped  atomic.Uint64
	bytes    atomic.Uint64
}

// New builds a ring with the given capacity; cap <= 0 selects
// DefaultCapacity.
func New(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{ch: make(chan []byte, capacity), closed: make(chan struct{})}
}

// Capacity returns the ring capacity in frames.
func (r *Ring) Capacity() int { return cap(r.ch) }

// Len returns the current queue depth.
func (r *Ring) Len() int { return len(r.ch) }

// TryEnqueue offers a frame without blocking. It returns false (and counts
// a drop) when the ring is full or closed.
func (r *Ring) TryEnqueue(frame []byte) bool {
	select {
	case <-r.closed:
		r.dropped.Add(1)
		return false
	default:
	}
	select {
	case r.ch <- frame:
		r.enqueued.Add(1)
		r.bytes.Add(uint64(len(frame)))
		return true
	default:
		r.dropped.Add(1)
		return false
	}
}

// Enqueue blocks until the frame is accepted or the ring is closed.
func (r *Ring) Enqueue(frame []byte) error {
	select {
	case r.ch <- frame:
		r.enqueued.Add(1)
		r.bytes.Add(uint64(len(frame)))
		return nil
	case <-r.closed:
		return ErrClosed
	}
}

// EnqueueTimeout blocks until the frame is accepted, the ring is closed, or
// wait elapses. A full ring past the deadline returns ErrFull and counts
// exactly one drop (unlike a TryEnqueue retry loop, which inflates the drop
// counter on every probe); a closed ring returns ErrClosed and also counts a
// drop. A wait <= 0 degenerates to TryEnqueue semantics.
func (r *Ring) EnqueueTimeout(frame []byte, wait time.Duration) error {
	select {
	case <-r.closed:
		r.dropped.Add(1)
		return ErrClosed
	default:
	}
	select {
	case r.ch <- frame:
		r.enqueued.Add(1)
		r.bytes.Add(uint64(len(frame)))
		return nil
	default:
	}
	if wait <= 0 {
		r.dropped.Add(1)
		return ErrFull
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case r.ch <- frame:
		r.enqueued.Add(1)
		r.bytes.Add(uint64(len(frame)))
		return nil
	case <-timer.C:
		r.dropped.Add(1)
		return ErrFull
	case <-r.closed:
		r.dropped.Add(1)
		return ErrClosed
	}
}

// Dequeue blocks until a frame is available or the ring is closed and
// drained.
func (r *Ring) Dequeue() ([]byte, error) {
	select {
	case f := <-r.ch:
		return f, nil
	default:
	}
	select {
	case f := <-r.ch:
		return f, nil
	case <-r.closed:
		// Drain anything raced in before close.
		select {
		case f := <-r.ch:
			return f, nil
		default:
			return nil, ErrClosed
		}
	}
}

// DequeueBatch waits up to wait for at least one frame, then drains up to
// max frames without blocking, appending to dst. It returns dst and ErrClosed
// only when the ring is closed and empty. A wait of 0 polls.
func (r *Ring) DequeueBatch(dst [][]byte, max int, wait time.Duration) ([][]byte, error) {
	if max <= 0 {
		max = cap(r.ch)
	}
	first, err := r.dequeueTimeout(wait)
	if err != nil {
		return dst, err
	}
	if first == nil {
		return dst, nil // timed out, no frames
	}
	dst = append(dst, first)
	for len(dst) > 0 && max > 1 {
		select {
		case f := <-r.ch:
			dst = append(dst, f)
			max--
		default:
			return dst, nil
		}
	}
	return dst, nil
}

// dequeueTimeout waits up to wait for one frame; (nil, nil) means timeout.
func (r *Ring) dequeueTimeout(wait time.Duration) ([]byte, error) {
	select {
	case f := <-r.ch:
		return f, nil
	default:
	}
	if wait <= 0 {
		return nil, nil
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case f := <-r.ch:
		return f, nil
	case <-timer.C:
		return nil, nil
	case <-r.closed:
		select {
		case f := <-r.ch:
			return f, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Close marks the ring closed. Blocked producers and consumers are released;
// already-queued frames remain readable via Dequeue until drained.
func (r *Ring) Close() {
	r.closeOne.Do(func() { close(r.closed) })
}

// Closed reports whether Close has been called.
func (r *Ring) Closed() bool {
	select {
	case <-r.closed:
		return true
	default:
		return false
	}
}

// Stats returns a snapshot of the ring counters.
func (r *Ring) Stats() Stats {
	return Stats{
		Enqueued: r.enqueued.Load(),
		Dropped:  r.dropped.Load(),
		Bytes:    r.bytes.Load(),
	}
}
