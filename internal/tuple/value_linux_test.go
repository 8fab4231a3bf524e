package tuple

import (
	"syscall"
	"testing"
	"unsafe"
)

// TestStringAndBytesRefuseFourGiB hands the constructors a real 4 GiB
// payload: an anonymous PROT_NONE mapping reserves the addresses without
// committing a page, and the constructors read only its length.
func TestStringAndBytesRefuseFourGiB(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("no 4 GiB payloads on a 32-bit platform")
	}
	huge, err := syscall.Mmap(-1, 0, 1<<32, syscall.PROT_NONE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("cannot reserve 4 GiB of address space: %v", err)
	}
	defer func() {
		if err := syscall.Munmap(huge); err != nil {
			t.Error(err)
		}
	}()
	mustPanic := func(name string, build func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted a 4 GiB payload", name)
			}
		}()
		build()
	}
	mustPanic("Bytes", func() { Bytes(huge) })
	mustPanic("String", func() { String(unsafe.String(&huge[0], len(huge))) })
	// One byte less still fits the uint32 length prefix.
	if got := len(Bytes(huge[1:]).AsBytes()); got != 1<<32-1 {
		t.Errorf("a 4 GiB-1 payload came back %d bytes long", got)
	}
}
