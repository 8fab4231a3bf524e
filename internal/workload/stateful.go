// Stateful reference components for the §3.5 stable update protocol: the
// word counter's keyed cache and a tumbling-window counter both implement
// worker.StatefulComponent, so a managed rescale can snapshot their state
// by key range and re-partition it onto a new instance set.
package workload

import (
	"encoding/json"
	"fmt"

	"typhoon/internal/metrics"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// LogicWindowCounter names the windowed keyed counter.
const LogicWindowCounter = "workload/window-counter"

func init() {
	worker.RegisterLogic(LogicWindowCounter, func() worker.Component { return &WindowedCounter{} })
}

// SnapshotState implements worker.StatefulComponent: each word's count in
// the requested partition range, encoded as decimal text.
func (c *Counter) SnapshotState(_ *worker.Context, r worker.KeyRange) (map[string][]byte, error) {
	return worker.SnapshotCounts(c.counts, r), nil
}

// RestoreState implements worker.StatefulComponent with replace semantics:
// the cache becomes exactly the migrated entries.
func (c *Counter) RestoreState(_ *worker.Context, state map[string][]byte) error {
	counts, err := worker.RestoreCounts(state)
	if err != nil {
		return err
	}
	c.counts = counts
	return nil
}

// WindowedCounter counts (key, time) tuples into per-key tumbling windows
// of CfgWindowSize time units — the windowed-aggregation shape whose state
// is structured, not scalar, so migrations must preserve whole window
// tables. Field 0 is the key, field 1 the integer (virtual) timestamp.
// On SIGNAL it emits (key, window, count) for every closed window, keeping
// only the currently open one per key.
type WindowedCounter struct {
	stats   *Stats
	total   *metrics.Counter
	size    int64
	windows map[string]map[int64]int64
	// watermark is the highest timestamp seen; windows ending at or before
	// it are closed on the next SIGNAL.
	watermark int64
}

// CfgWindowSize sets the tumbling window width in input time units.
const CfgWindowSize = "window.size"

// Open implements worker.Component.
func (w *WindowedCounter) Open(ctx *worker.Context) error {
	w.stats, _ = env(ctx)
	_, cfg := env(ctx)
	w.size = cfg.Get(CfgWindowSize, 100)
	if w.size < 1 {
		w.size = 1
	}
	w.total = w.stats.Counter("window.total")
	w.windows = make(map[string]map[int64]int64)
	return nil
}

// Close implements worker.Component.
func (w *WindowedCounter) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (w *WindowedCounter) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		closed := w.watermark / w.size // windows strictly below stay closed
		for key, wins := range w.windows {
			for win, n := range wins {
				if win < closed {
					ctx.Emit(tuple.String(key), tuple.Int(win), tuple.Int(n))
					delete(wins, win)
				}
			}
			if len(wins) == 0 {
				delete(w.windows, key)
			}
		}
		return nil
	}
	key := in.Field(0).AsString()
	ts := in.Field(1).AsInt()
	if ts > w.watermark {
		w.watermark = ts
	}
	wins := w.windows[key]
	if wins == nil {
		wins = make(map[int64]int64)
		w.windows[key] = wins
	}
	wins[ts/w.size]++
	w.total.Inc()
	return nil
}

// windowState is the wire form of one key's window table.
type windowState struct {
	Watermark int64           `json:"wm"`
	Windows   map[int64]int64 `json:"w"`
}

// SnapshotState implements worker.StatefulComponent: each key's full
// window table (JSON) in the requested partition range, carrying the
// watermark so restored instances keep closing windows correctly.
func (w *WindowedCounter) SnapshotState(_ *worker.Context, r worker.KeyRange) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for key, wins := range w.windows {
		if !r.Contains(worker.PartitionOfKey(key)) {
			continue
		}
		blob, err := json.Marshal(windowState{Watermark: w.watermark, Windows: wins})
		if err != nil {
			return nil, err
		}
		out[key] = blob
	}
	return out, nil
}

// RestoreState implements worker.StatefulComponent with replace semantics.
func (w *WindowedCounter) RestoreState(_ *worker.Context, state map[string][]byte) error {
	windows := make(map[string]map[int64]int64, len(state))
	var wm int64
	for key, blob := range state {
		var ws windowState
		if err := json.Unmarshal(blob, &ws); err != nil {
			return fmt.Errorf("workload: bad window state for %q: %w", key, err)
		}
		windows[key] = ws.Windows
		if ws.Watermark > wm {
			wm = ws.Watermark
		}
	}
	w.windows = windows
	if wm > w.watermark {
		w.watermark = wm
	}
	return nil
}

// WindowCount reports one key's count in one window (tests).
func (w *WindowedCounter) WindowCount(key string, win int64) int64 {
	return w.windows[key][win]
}
