package coordinator

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitAsync runs Await in a goroutine and returns, once cond has been
// checked the first time, the channel its result arrives on and the number
// of cond checks so far. Writes made after it returns land after the first
// check, so only a watch event can end the wait.
func awaitAsync(t *testing.T, ctx context.Context, s *Store, prefix string, cond func() bool) (<-chan error, *atomic.Int64) {
	t.Helper()
	var checks atomic.Int64
	var once sync.Once
	checked := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Await(ctx, s, prefix, func() bool {
			checks.Add(1)
			ok := cond()
			once.Do(func() { close(checked) })
			return ok
		})
	}()
	select {
	case <-checked:
	case err := <-done:
		t.Fatalf("Await returned before its first check: %v", err)
	}
	return done, &checks
}

func waitResult(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("Await never returned")
		return nil
	}
}

func TestAwait(t *testing.T) {
	t.Run("already true", func(t *testing.T) {
		s := NewStore()
		checks := 0
		// No deadline: a wait would hang the test.
		if err := Await(context.Background(), s, "/a", func() bool { checks++; return true }); err != nil {
			t.Fatal(err)
		}
		if checks != 1 {
			t.Fatalf("cond checked %d times, want 1", checks)
		}
	})

	t.Run("put under prefix wakes it", func(t *testing.T) {
		s := NewStore()
		exists := func() bool { _, _, err := s.Get("/a/b"); return err == nil }
		done, checks := awaitAsync(t, context.Background(), s, "/a", exists)
		s.Put("/elsewhere", []byte("x")) // outside the prefix: no re-check
		s.Put("/a/b", []byte("x"))
		if err := waitResult(t, done); err != nil {
			t.Fatal(err)
		}
		if n := checks.Load(); n != 2 {
			t.Fatalf("cond checked %d times, want 2 (first check, then the /a/b event)", n)
		}
	})

	t.Run("burst past the watch buffer", func(t *testing.T) {
		s := NewStore()
		const last = 1000 // the watch buffer holds 256 events
		done, _ := awaitAsync(t, context.Background(), s, "/a", func() bool {
			raw, _, err := s.Get("/a/n")
			return err == nil && string(raw) == strconv.Itoa(last)
		})
		for i := 1; i <= last; i++ {
			s.Put("/a/n", []byte(strconv.Itoa(i)))
		}
		if err := waitResult(t, done); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ctx deadline ends it", func(t *testing.T) {
		s := NewStore()
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		err := Await(ctx, s, "/a", func() bool { return false })
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
		if el := time.Since(start); el < 30*time.Millisecond {
			t.Fatalf("returned after %v, before the deadline", el)
		}
	})

	t.Run("close ends it", func(t *testing.T) {
		s := NewStore()
		done, _ := awaitAsync(t, context.Background(), s, "/a", func() bool { return false })
		s.Close()
		if err := waitResult(t, done); err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
		if err := Await(context.Background(), s, "/a", func() bool { return false }); err != ErrClosed {
			t.Fatalf("on a closed store: err = %v, want ErrClosed", err)
		}
	})
}
