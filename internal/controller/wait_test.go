package controller

import "time"

// awaitCond polls cond every millisecond until it reports true or the
// timeout elapses, returning whether the condition was met. Tests use it to
// wait on controller memory that no coordinator node reflects; product code
// waits on coordinator events (coordinator.Await).
func awaitCond(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
