// Package coordinator implements the central coordinator of the Typhoon
// architecture: a hierarchical, versioned key-value store with watches,
// standing in for Apache ZooKeeper (§5, Table 1).
//
// All Typhoon components coordinate through it: the streaming manager writes
// logical/physical topologies, worker agents register themselves and watch
// for assignments, and the stateless SDN controller reconstructs the global
// state it needs to generate flow rules.
//
// Store is the one implementation and lives in the cluster's process; its
// users take the KV interface. It has no wire protocol of its own: another
// process reaches a running cluster through /api/v1 (internal/apiclient),
// where the streaming manager validates what it is asked to change.
package coordinator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors returned by store operations.
var (
	ErrNotFound   = errors.New("coordinator: node not found")
	ErrExists     = errors.New("coordinator: node already exists")
	ErrBadVersion = errors.New("coordinator: version conflict")
	ErrBadPath    = errors.New("coordinator: malformed path")
	ErrClosed     = errors.New("coordinator: closed")
)

// EventType classifies watch events.
type EventType uint8

// Watch event types.
const (
	EventCreated EventType = iota + 1
	EventUpdated
	EventDeleted
)

func (t EventType) String() string {
	switch t {
	case EventCreated:
		return "created"
	case EventUpdated:
		return "updated"
	case EventDeleted:
		return "deleted"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// Event describes one change under a watched prefix.
type Event struct {
	Type    EventType
	Path    string
	Data    []byte
	Version int64
}

// KV is the coordination API the manager, agents and controllers are
// written against.
type KV interface {
	// Create makes a node; it fails with ErrExists if present.
	Create(path string, data []byte) error
	// Put upserts a node and returns its new version.
	Put(path string, data []byte) (int64, error)
	// CompareAndSet updates a node only at the expected version and
	// returns the new version.
	CompareAndSet(path string, data []byte, version int64) (int64, error)
	// Get returns a node's data and version.
	Get(path string) ([]byte, int64, error)
	// Delete removes a node.
	Delete(path string) error
	// Children lists the immediate child names under path, sorted.
	Children(path string) ([]string, error)
	// Watch streams events for every node whose path has the given
	// prefix. Cancel releases the watch. Watches are persistent (unlike
	// ZooKeeper's one-shot watches) — each change produces one event.
	Watch(prefix string) (<-chan Event, func(), error)
}

type node struct {
	data    []byte
	version int64
}

type watcher struct {
	prefix string
	ch     chan Event
}

// Store is the in-process coordinator state.
type Store struct {
	mu       sync.Mutex
	nodes    map[string]*node
	watchers map[int64]*watcher
	nextWID  int64
	closed   bool
}

// NewStore builds an empty store.
func NewStore() *Store {
	return &Store{nodes: make(map[string]*node), watchers: make(map[int64]*watcher)}
}

// ValidPath reports whether p is a well-formed absolute path.
func ValidPath(p string) bool {
	if p == "" || p[0] != '/' || (len(p) > 1 && strings.HasSuffix(p, "/")) {
		return false
	}
	return !strings.Contains(p, "//")
}

// Create implements KV.
func (s *Store) Create(path string, data []byte) error {
	if !ValidPath(path) {
		return ErrBadPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.nodes[path]; ok {
		return ErrExists
	}
	s.nodes[path] = &node{data: cloneBytes(data), version: 1}
	s.notifyLocked(Event{Type: EventCreated, Path: path, Data: cloneBytes(data), Version: 1})
	return nil
}

// Put implements KV.
func (s *Store) Put(path string, data []byte) (int64, error) {
	if !ValidPath(path) {
		return 0, ErrBadPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n, ok := s.nodes[path]
	if !ok {
		s.nodes[path] = &node{data: cloneBytes(data), version: 1}
		s.notifyLocked(Event{Type: EventCreated, Path: path, Data: cloneBytes(data), Version: 1})
		return 1, nil
	}
	n.data = cloneBytes(data)
	n.version++
	s.notifyLocked(Event{Type: EventUpdated, Path: path, Data: cloneBytes(data), Version: n.version})
	return n.version, nil
}

// CompareAndSet implements KV.
func (s *Store) CompareAndSet(path string, data []byte, version int64) (int64, error) {
	if !ValidPath(path) {
		return 0, ErrBadPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n, ok := s.nodes[path]
	if !ok {
		return 0, ErrNotFound
	}
	if n.version != version {
		return 0, ErrBadVersion
	}
	n.data = cloneBytes(data)
	n.version++
	s.notifyLocked(Event{Type: EventUpdated, Path: path, Data: cloneBytes(data), Version: n.version})
	return n.version, nil
}

// Get implements KV.
func (s *Store) Get(path string) ([]byte, int64, error) {
	if !ValidPath(path) {
		return nil, 0, ErrBadPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[path]
	if !ok {
		return nil, 0, ErrNotFound
	}
	return cloneBytes(n.data), n.version, nil
}

// Delete implements KV.
func (s *Store) Delete(path string) error {
	if !ValidPath(path) {
		return ErrBadPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[path]
	if !ok {
		return ErrNotFound
	}
	delete(s.nodes, path)
	s.notifyLocked(Event{Type: EventDeleted, Path: path, Version: n.version})
	return nil
}

// Children implements KV. A node need not exist to have children; the tree
// is implied by paths, as with prefixes in etcd.
func (s *Store) Children(path string) ([]string, error) {
	if !ValidPath(path) {
		return nil, ErrBadPath
	}
	prefix := path
	if prefix != "/" {
		prefix += "/"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]bool)
	for p := range s.nodes {
		if !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := p[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		seen[rest] = true
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}

// Watch implements KV. Events are delivered on a buffered channel; a
// persistently slow consumer loses the oldest events rather than blocking
// writers (watchers must treat the stream as advisory and re-read state).
func (s *Store) Watch(prefix string) (<-chan Event, func(), error) {
	if !ValidPath(prefix) {
		return nil, nil, ErrBadPath
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	s.nextWID++
	id := s.nextWID
	w := &watcher{prefix: prefix, ch: make(chan Event, 256)}
	s.watchers[id] = w
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.watchers[id]; ok {
			delete(s.watchers, id)
			close(w.ch)
		}
	}
	return w.ch, cancel, nil
}

// Await blocks until cond reports true, re-checking it after every change
// under prefix: the one way a reader waits for the control plane to
// converge. The watch is registered before the first check, so a change
// landing between the two still wakes it, and a reader that falls behind
// loses the oldest events, never the newest, so the last change is always
// re-checked. It returns nil once cond holds, ctx's error when ctx ends
// first, and ErrClosed when the store closes.
func Await(ctx context.Context, kv KV, prefix string, cond func() bool) error {
	events, cancel, err := kv.Watch(prefix)
	if err != nil {
		return err
	}
	defer cancel()
	for !cond() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case _, ok := <-events:
			if !ok {
				return ErrClosed
			}
		}
	}
	return nil
}

// Close releases all watchers; subsequent writes fail.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for id, w := range s.watchers {
		delete(s.watchers, id)
		close(w.ch)
	}
}

// Dump returns a copy of all nodes, for debugging and tests.
func (s *Store) Dump() map[string][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.nodes))
	for p, n := range s.nodes {
		out[p] = cloneBytes(n.data)
	}
	return out
}

func (s *Store) notifyLocked(ev Event) {
	for id, w := range s.watchers {
		if !watchCovers(w.prefix, ev.Path) {
			continue
		}
		select {
		case w.ch <- ev:
		default:
			// Drop-oldest: evict one and retry once.
			select {
			case <-w.ch:
			default:
			}
			select {
			case w.ch <- ev:
			default:
				_ = id // still full; drop the event
			}
		}
	}
}

// watchCovers reports whether a watch on prefix should see path.
func watchCovers(prefix, path string) bool {
	if prefix == "/" {
		return true
	}
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
