package ring

import (
	"sync"
	"testing"
	"time"
)

func TestTryEnqueueDropsWhenFull(t *testing.T) {
	r := New(2)
	if !r.TryEnqueue([]byte("a")) || !r.TryEnqueue([]byte("b")) {
		t.Fatal("enqueue into non-full ring failed")
	}
	if r.TryEnqueue([]byte("c")) {
		t.Fatal("enqueue into full ring should fail")
	}
	s := r.Stats()
	if s.Enqueued != 2 || s.Dropped != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if r.Len() != 2 || r.Capacity() != 2 {
		t.Fatalf("len=%d cap=%d", r.Len(), r.Capacity())
	}
}

func TestDequeueFIFO(t *testing.T) {
	r := New(8)
	r.TryEnqueue([]byte("1"))
	r.TryEnqueue([]byte("2"))
	a, err := r.Dequeue()
	if err != nil || string(a) != "1" {
		t.Fatalf("got %q err=%v", a, err)
	}
	b, _ := r.Dequeue()
	if string(b) != "2" {
		t.Fatalf("got %q", b)
	}
}

func TestBlockingEnqueueReleasedByConsumer(t *testing.T) {
	r := New(1)
	r.TryEnqueue([]byte("x"))
	done := make(chan error, 1)
	go func() { done <- r.Enqueue([]byte("y")) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := r.Dequeue(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCloseReleasesBlockedConsumers(t *testing.T) {
	r := New(4)
	errc := make(chan error, 1)
	go func() {
		_, err := r.Dequeue()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	if err := <-errc; err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if !r.Closed() {
		t.Fatal("Closed() should be true")
	}
	if r.TryEnqueue([]byte("z")) {
		t.Fatal("enqueue after close should fail")
	}
}

func TestCloseDrainsQueuedFrames(t *testing.T) {
	r := New(4)
	r.TryEnqueue([]byte("keep"))
	r.Close()
	f, err := r.Dequeue()
	if err != nil || string(f) != "keep" {
		t.Fatalf("queued frame lost on close: %q %v", f, err)
	}
	if _, err := r.Dequeue(); err != ErrClosed {
		t.Fatalf("drained ring should report ErrClosed, got %v", err)
	}
}

func TestDequeueBatch(t *testing.T) {
	r := New(16)
	for i := 0; i < 5; i++ {
		r.TryEnqueue([]byte{byte(i)})
	}
	out, err := r.DequeueBatch(nil, 3, time.Second)
	if err != nil || len(out) != 3 {
		t.Fatalf("batch len=%d err=%v", len(out), err)
	}
	out, err = r.DequeueBatch(out[:0], 0, time.Second)
	if err != nil || len(out) != 2 {
		t.Fatalf("second batch len=%d err=%v", len(out), err)
	}
}

func TestDequeueBatchTimeout(t *testing.T) {
	r := New(4)
	start := time.Now()
	out, err := r.DequeueBatch(nil, 4, 20*time.Millisecond)
	if err != nil || len(out) != 0 {
		t.Fatalf("timeout batch: len=%d err=%v", len(out), err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("returned before timeout")
	}
	// Poll mode returns immediately.
	out, err = r.DequeueBatch(nil, 4, 0)
	if err != nil || len(out) != 0 {
		t.Fatalf("poll batch: len=%d err=%v", len(out), err)
	}
}

func TestDequeueBatchClosed(t *testing.T) {
	r := New(4)
	r.Close()
	if _, err := r.DequeueBatch(nil, 4, time.Second); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	r := New(1024)
	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				_ = r.Enqueue([]byte{1})
			}
		}()
	}
	var consumed int
	var mu sync.Mutex
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				if _, err := r.Dequeue(); err != nil {
					return
				}
				mu.Lock()
				consumed++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for r.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	r.Close()
	cwg.Wait()
	if consumed != producers*perProducer {
		t.Fatalf("consumed %d, want %d", consumed, producers*perProducer)
	}
}

func TestDequeueBatchPollWithQueuedFrames(t *testing.T) {
	// wait=0 must not miss frames that are already queued.
	r := New(8)
	r.TryEnqueue([]byte("a"))
	r.TryEnqueue([]byte("b"))
	out, err := r.DequeueBatch(nil, 8, 0)
	if err != nil || len(out) != 2 {
		t.Fatalf("poll batch: len=%d err=%v", len(out), err)
	}
}

func TestDequeueBatchCloseWhileWaiting(t *testing.T) {
	r := New(4)
	errc := make(chan error, 1)
	go func() {
		_, err := r.DequeueBatch(nil, 4, time.Minute)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("DequeueBatch not released by Close")
	}
}

func TestDequeueBatchMaxSmallerThanQueued(t *testing.T) {
	r := New(16)
	for i := 0; i < 10; i++ {
		r.TryEnqueue([]byte{byte(i)})
	}
	out, err := r.DequeueBatch(nil, 4, time.Second)
	if err != nil || len(out) != 4 {
		t.Fatalf("len=%d err=%v", len(out), err)
	}
	if out[0][0] != 0 || out[3][0] != 3 {
		t.Fatalf("batch not FIFO: %v", out)
	}
	if r.Len() != 6 {
		t.Fatalf("ring holds %d frames, want 6", r.Len())
	}
}

func TestEnqueueTimeoutFullCountsOneDrop(t *testing.T) {
	r := New(1)
	r.TryEnqueue([]byte("x"))
	start := time.Now()
	if err := r.EnqueueTimeout([]byte("y"), 20*time.Millisecond); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("returned before deadline")
	}
	if s := r.Stats(); s.Dropped != 1 {
		t.Fatalf("dropped = %d, want exactly 1", s.Dropped)
	}
}

func TestEnqueueTimeoutReleasedByConsumer(t *testing.T) {
	r := New(1)
	r.TryEnqueue([]byte("x"))
	done := make(chan error, 1)
	go func() { done <- r.EnqueueTimeout([]byte("y"), time.Minute) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := r.Dequeue(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("EnqueueTimeout = %v after space freed", err)
	}
	if s := r.Stats(); s.Enqueued != 2 || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEnqueueTimeoutClosed(t *testing.T) {
	r := New(1)
	r.Close()
	if err := r.EnqueueTimeout([]byte("z"), time.Second); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Close while a producer is blocked on a full ring.
	r2 := New(1)
	r2.TryEnqueue([]byte("x"))
	done := make(chan error, 1)
	go func() { done <- r2.EnqueueTimeout([]byte("y"), time.Minute) }()
	time.Sleep(10 * time.Millisecond)
	r2.Close()
	if err := <-done; err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestEnqueueTimeoutZeroWaitPolls(t *testing.T) {
	r := New(1)
	if err := r.EnqueueTimeout([]byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := r.EnqueueTimeout([]byte("b"), 0); err != ErrFull {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("zero wait should not block")
	}
}

func TestDefaultCapacity(t *testing.T) {
	if New(0).Capacity() != DefaultCapacity {
		t.Fatal("default capacity not applied")
	}
}
