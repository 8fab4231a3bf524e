package coordinator

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestStoreCRUD(t *testing.T) {
	s := NewStore()
	if err := s.Create("/a/b", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("/a/b", []byte("2")); err != ErrExists {
		t.Fatalf("duplicate create: %v", err)
	}
	data, v, err := s.Get("/a/b")
	if err != nil || string(data) != "1" || v != 1 {
		t.Fatalf("get: %q v=%d err=%v", data, v, err)
	}
	v, err = s.Put("/a/b", []byte("2"))
	if err != nil || v != 2 {
		t.Fatalf("put: v=%d err=%v", v, err)
	}
	if _, err := s.CompareAndSet("/a/b", []byte("x"), 1); err != ErrBadVersion {
		t.Fatalf("stale CAS: %v", err)
	}
	if v, err = s.CompareAndSet("/a/b", []byte("3"), 2); err != nil || v != 3 {
		t.Fatalf("CAS: v=%d err=%v", v, err)
	}
	if _, err := s.CompareAndSet("/missing", nil, 1); err != ErrNotFound {
		t.Fatalf("CAS missing: %v", err)
	}
	if err := s.Delete("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/a/b"); err != ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
	if _, _, err := s.Get("/a/b"); err != ErrNotFound {
		t.Fatalf("get deleted: %v", err)
	}
}

func TestStorePathValidation(t *testing.T) {
	s := NewStore()
	for _, p := range []string{"", "a", "/a/", "//a", "/a//b"} {
		if err := s.Create(p, nil); err != ErrBadPath {
			t.Errorf("Create(%q) = %v, want ErrBadPath", p, err)
		}
	}
	if !ValidPath("/") || !ValidPath("/a/b/c") {
		t.Error("valid paths rejected")
	}
}

func TestStoreChildren(t *testing.T) {
	s := NewStore()
	s.Put("/t/1/logical", []byte("a"))
	s.Put("/t/1/physical", []byte("b"))
	s.Put("/t/2/logical", []byte("c"))
	s.Put("/other", []byte("d"))
	kids, err := s.Children("/t")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 || kids[0] != "1" || kids[1] != "2" {
		t.Fatalf("children = %v", kids)
	}
	kids, _ = s.Children("/t/1")
	if len(kids) != 2 || kids[0] != "logical" {
		t.Fatalf("children = %v", kids)
	}
	root, _ := s.Children("/")
	if len(root) != 2 { // t, other
		t.Fatalf("root children = %v", root)
	}
}

func TestStoreWatch(t *testing.T) {
	s := NewStore()
	ch, cancel, err := s.Watch("/topo")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	s.Put("/topo/1", []byte("x"))
	s.Put("/topo/1", []byte("y"))
	s.Delete("/topo/1")
	s.Put("/elsewhere", []byte("z")) // not covered

	want := []EventType{EventCreated, EventUpdated, EventDeleted}
	for i, wt := range want {
		select {
		case ev := <-ch:
			if ev.Type != wt || ev.Path != "/topo/1" {
				t.Fatalf("event %d = %v %s", i, ev.Type, ev.Path)
			}
		case <-time.After(time.Second):
			t.Fatalf("missing event %d", i)
		}
	}
	select {
	case ev := <-ch:
		t.Fatalf("unexpected event %v %s", ev.Type, ev.Path)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestWatchExactNodeAndCancel(t *testing.T) {
	s := NewStore()
	ch, cancel, _ := s.Watch("/a")
	s.Put("/a", []byte("1"))
	select {
	case ev := <-ch:
		if ev.Type != EventCreated {
			t.Fatalf("ev = %v", ev.Type)
		}
	case <-time.After(time.Second):
		t.Fatal("no event for exact node")
	}
	// /ab must NOT be covered by a watch on /a.
	s.Put("/ab", []byte("1"))
	select {
	case ev := <-ch:
		t.Fatalf("sibling leak: %v", ev.Path)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel should close on cancel")
	}
	cancel() // idempotent
}

func TestStoreClose(t *testing.T) {
	s := NewStore()
	ch, _, _ := s.Watch("/x")
	s.Close()
	if _, ok := <-ch; ok {
		t.Fatal("watch channel should close")
	}
	if err := s.Create("/x", nil); err != ErrClosed {
		t.Fatalf("create after close: %v", err)
	}
	if _, _, err := s.Watch("/x"); err != ErrClosed {
		t.Fatalf("watch after close: %v", err)
	}
	s.Close() // idempotent
}

func TestPropertyPutGetRoundTrip(t *testing.T) {
	s := NewStore()
	f := func(key uint16, data []byte) bool {
		path := fmt.Sprintf("/prop/%d", key)
		if _, err := s.Put(path, data); err != nil {
			return false
		}
		got, _, err := s.Get(path)
		if err != nil {
			return false
		}
		return string(got) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyVersionsMonotonic(t *testing.T) {
	s := NewStore()
	var last int64
	for i := 0; i < 100; i++ {
		v, err := s.Put("/mono", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if v <= last {
			t.Fatalf("version %d not > %d", v, last)
		}
		last = v
	}
}

func TestEventTypeString(t *testing.T) {
	for _, et := range []EventType{EventCreated, EventUpdated, EventDeleted, EventType(9)} {
		if et.String() == "" {
			t.Fatal("empty event type string")
		}
	}
}

func TestDump(t *testing.T) {
	s := NewStore()
	s.Put("/a", []byte("1"))
	s.Put("/b", []byte("2"))
	d := s.Dump()
	if len(d) != 2 || string(d["/a"]) != "1" {
		t.Fatalf("dump = %v", d)
	}
}
