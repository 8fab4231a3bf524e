package clock

import "time"

// Dozer is a sleep that ends on time, for one goroutine at a time.
//
// A Go timer below a millisecond does not end on time: once the process is
// idle the runtime waits for its next timer in an epoll_pwait whose timeout
// is whole milliseconds, so a 200 µs sleep returns after ≈1.08 ms (go1.24,
// 2-vCPU VM). On Linux a Dozer is a timerfd read through the runtime's
// netpoller instead: the kernel ends that epoll_pwait when the timer fires,
// and the dozing goroutine holds no OS thread and no P meanwhile. (A raw
// nanosleep also ends on time, but it holds both.) Elsewhere, or when the
// timerfd cannot be made, Sleep is time.Sleep.
//
// The zero Dozer and a closed one sleep with time.Sleep.
type Dozer struct {
	t *timerFD // nil: no kernel timer, Sleep is time.Sleep
}

// NewDozer makes a Dozer; Close releases its timer.
func NewDozer() *Dozer { return &Dozer{t: newTimerFD()} }

// Sleep pauses the calling goroutine for at least d.
func (z *Dozer) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if z.t == nil || z.t.sleep(d) != nil {
		time.Sleep(d)
	}
}

// Close releases the Dozer's timer. Later Sleeps use time.Sleep.
func (z *Dozer) Close() error {
	t := z.t
	if t == nil {
		return nil
	}
	z.t = nil
	return t.close()
}
