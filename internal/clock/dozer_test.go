package clock

import (
	"os"
	"runtime/pprof"
	"slices"
	"sync"
	"testing"
	"time"
)

// newTimedDozer makes a Dozer and skips the test where it has no kernel
// timer (it is then time.Sleep, which these tests are not about).
func newTimedDozer(t *testing.T) *Dozer {
	t.Helper()
	z := NewDozer()
	t.Cleanup(func() { _ = z.Close() })
	if z.t == nil {
		t.Skip("no timerfd on this platform: Dozer is time.Sleep")
	}
	return z
}

// TestDozerEndsOnTime: 200 µs dozes end near 200 µs. A Go timer of the same
// length, logged beside it, returns after the runtime's whole-millisecond
// poll once the process is idle (≈1.08 ms on a 2-vCPU VM); that is why the
// Dozer exists, but it is the runtime's behaviour and not asserted.
func TestDozerEndsOnTime(t *testing.T) {
	const d, n = 200 * time.Microsecond, 300
	z := newTimedDozer(t)
	p50 := func(sleep func(time.Duration)) time.Duration {
		took := make([]time.Duration, n)
		for i := range took {
			begin := time.Now()
			sleep(d)
			took[i] = time.Since(begin)
		}
		slices.Sort(took)
		return took[n/2]
	}
	got := p50(z.Sleep)
	t.Logf("p50 of %d sleeps of %v: Dozer %v, time.Sleep %v", n, d, got, p50(time.Sleep))
	if got >= 500*time.Microsecond {
		t.Fatalf("Dozer p50 = %v for a %v doze, want < 500µs", got, d)
	}
}

// TestDozerParksInNetpoller: a doze holds no OS thread. Sixty-four goroutines
// dozing at once would need a thread each if the doze blocked in a syscall
// (nanosleep, a blocking read); parked in the netpoller they need none.
func TestDozerParksInNetpoller(t *testing.T) {
	const sleepers = 64
	zs := make([]*Dozer, sleepers)
	for i := range zs {
		zs[i] = newTimedDozer(t)
	}
	threads := pprof.Lookup("threadcreate")
	before := threads.Count()
	var wg sync.WaitGroup
	for _, z := range zs {
		wg.Add(1)
		go func(z *Dozer) {
			defer wg.Done()
			z.Sleep(5 * time.Millisecond)
		}(z)
	}
	wg.Wait()
	if grew := threads.Count() - before; grew >= 16 {
		t.Fatalf("%d goroutines dozing made %d threads, want < 16", sleepers, grew)
	}
}

// TestDozerClose: Close gives the timer's file descriptor back, and a closed
// Dozer still sleeps.
func TestDozerClose(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	// The runtime's netpoller opens descriptors of its own on first use.
	newTimedDozer(t).Sleep(time.Microsecond)
	base := fds()
	for i := 0; i < 100; i++ {
		z := NewDozer()
		z.Sleep(time.Microsecond)
		if err := z.Close(); err != nil {
			t.Fatal(err)
		}
		begin := time.Now()
		z.Sleep(time.Millisecond)
		if took := time.Since(begin); took < time.Millisecond {
			t.Fatalf("a closed Dozer slept %v of 1ms", took)
		}
	}
	if got := fds(); got != base {
		t.Fatalf("open fds %d after 100 Dozers were made and closed, want %d", got, base)
	}
}
