package clock

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerFD is a CLOCK_MONOTONIC timerfd. It is non-blocking, so os.File
// parks a read that finds no expiration in the netpoller rather than
// blocking a thread in read(2).
type timerFD struct {
	f    *os.File
	fd   uintptr    // f's descriptor; f.Fd() would put f in blocking mode
	spec itimerspec // timerfd_settime's argument; kept here so arming allocates nothing
	buf  [8]byte    // the expiration count a read returns
}

// itimerspec is struct itimerspec of timerfd_settime(2).
type itimerspec struct {
	interval, value syscall.Timespec
}

func newTimerFD() *timerFD {
	const clockMonotonic = 1
	// TFD_NONBLOCK and TFD_CLOEXEC are O_NONBLOCK and O_CLOEXEC.
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	return &timerFD{f: os.NewFile(fd, "timerfd"), fd: fd}
}

// sleep arms the timer once, d from now, and reads its expiration. Arming
// resets the expiration count, so the read cannot see an earlier one.
func (t *timerFD) sleep(d time.Duration) error {
	t.spec.value = syscall.NsecToTimespec(d.Nanoseconds())
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0,
		uintptr(unsafe.Pointer(&t.spec)), 0, 0, 0); errno != 0 {
		return errno
	}
	_, err := t.f.Read(t.buf[:])
	return err
}

func (t *timerFD) close() error { return t.f.Close() }
