//go:build !linux

package clock

import "time"

// timerFD has no counterpart here: newTimerFD makes none, so every Dozer
// sleeps with time.Sleep.
type timerFD struct{}

func newTimerFD() *timerFD { return nil }

func (*timerFD) sleep(time.Duration) error { return nil }

func (*timerFD) close() error { return nil }
