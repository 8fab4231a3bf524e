package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// selfTimes is each span name's duration minus the part its children
// cover, summed over spans of that name.
func selfTimes(spans []span) map[string]int64 {
	covered := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered[s.ID]
	}
	return out
}

// checkNesting reports the first span that is unfinished, refers to a
// missing parent, or reaches outside its parent.
func checkNesting(spans []span) error {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%d,%d] lies outside its parent %q [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// traceFile is the layout of out/trace.json: one entry per workload, each
// replaced by that workload's latest traced pass.
type traceFile struct {
	Workloads map[string]traceEntry `json:"workloads"`
}

type traceEntry struct {
	Seed   int64            `json:"seed"`
	Spans  []span           `json:"spans"`
	SelfNs map[string]int64 `json:"self_ns"`
}

// dump merges the tracer's spans into dir/trace.json.
func (t *tracer) dump(dir, workload string, seed int64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace.json")
	var tf traceFile
	if blob, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(blob, &tf) // a damaged file is simply replaced
	}
	if tf.Workloads == nil {
		tf.Workloads = make(map[string]traceEntry)
	}
	tf.Workloads[workload] = traceEntry{Seed: seed, Spans: spans, SelfNs: selfTimes(spans)}
	blob, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
