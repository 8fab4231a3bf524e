package controller

import (
	"encoding/json"
	"testing"
	"time"

	"typhoon/internal/control"
	"typhoon/internal/packet"
	"typhoon/internal/topology"
)

// answer delivers a worker's METRIC_RESP to the updater as the PacketIn
// path does.
func answer(u *Updater, token uint64, id topology.WorkerID, processed uint64) {
	u.OnControlTuple(nil, "", packet.Addr{}, control.Encode(control.KindMetricResp,
		control.MetricResp{Token: token, Worker: id, Processed: processed}))
}

func TestUpdaterExchange(t *testing.T) {
	workers := []topology.Assignment{{Worker: 1}, {Worker: 2}}
	never := make(chan struct{})

	t.Run("straggler asked again once per round", func(t *testing.T) {
		u := NewUpdater()
		asks := map[topology.WorkerID]int{}
		start := time.Now()
		got, missing := u.exchange(never, workers, start.Add(exchangeRound*3/2), func(token uint64, id topology.WorkerID) bool {
			asks[id]++
			if id == 1 {
				answer(u, token, 1, 0)
			}
			return true
		})
		if missing != 1 || len(got) != 1 || got[1] == nil {
			t.Fatalf("missing=%d replies=%v, want worker 2 missing", missing, got)
		}
		// Asked at 0 and at one round; the window ends half a round later.
		if asks[1] != 1 || asks[2] != 2 {
			t.Fatalf("asks = %v, want worker 1 once, worker 2 twice", asks)
		}
		if el := time.Since(start); el < exchangeRound*3/2 {
			t.Fatalf("returned after %v, before until", el)
		}
	})

	t.Run("stray answers ignored", func(t *testing.T) {
		u := NewUpdater()
		first := true
		start := time.Now()
		got, missing := u.exchange(never, workers, start.Add(10*time.Second), func(token uint64, id topology.WorkerID) bool {
			if first {
				first = false
				answer(u, token+1, 1, 9) // another exchange's token
				answer(u, 0, 1, 9)       // unsolicited statistics
				answer(u, token, 3, 9)   // a worker not asked
				answer(u, token, 1, 1)
				answer(u, token, 1, 9) // a repeat
				answer(u, token, 2, 2)
			}
			return true
		})
		if missing != 0 || len(got) != 2 {
			t.Fatalf("missing=%d replies=%d, want both workers answered", missing, len(got))
		}
		for id, want := range map[topology.WorkerID]uint64{1: 1, 2: 2} {
			var mr control.MetricResp
			if err := json.Unmarshal(got[id], &mr); err != nil || mr.Processed != want {
				t.Fatalf("worker %d: processed=%d err=%v, want its first answer (%d)", id, mr.Processed, err, want)
			}
		}
		if el := time.Since(start); el > exchangeRound/2 {
			t.Fatalf("returned after %v, not when the last worker answered", el)
		}
	})

	t.Run("missing count at until", func(t *testing.T) {
		u := NewUpdater()
		asks := 0
		start := time.Now()
		_, missing := u.exchange(never, workers, start.Add(50*time.Millisecond), func(uint64, topology.WorkerID) bool {
			asks++
			return true
		})
		if missing != 2 || asks != 2 {
			t.Fatalf("missing=%d asks=%d, want 2 and 2", missing, asks)
		}
		if el := time.Since(start); el < 50*time.Millisecond || el > exchangeRound/2 {
			t.Fatalf("returned after %v, want at until (50ms)", el)
		}
	})

	t.Run("failed ask abandons it", func(t *testing.T) {
		u := NewUpdater()
		asks := 0
		_, missing := u.exchange(never, workers, time.Now().Add(10*time.Second), func(uint64, topology.WorkerID) bool {
			asks++
			return false
		})
		if missing != 2 || asks != 1 {
			t.Fatalf("missing=%d asks=%d, want 2 and 1", missing, asks)
		}
	})

	t.Run("controller stop ends it", func(t *testing.T) {
		u := NewUpdater()
		stop := make(chan struct{})
		time.AfterFunc(20*time.Millisecond, func() { close(stop) })
		start := time.Now()
		_, missing := u.exchange(stop, workers, start.Add(10*time.Second), func(uint64, topology.WorkerID) bool { return true })
		if missing != 2 {
			t.Fatalf("missing=%d, want 2", missing)
		}
		if el := time.Since(start); el > exchangeRound/2 {
			t.Fatalf("returned %v after start, not when the controller stopped", el)
		}
	})

	t.Run("tokens are per updater and per exchange", func(t *testing.T) {
		u, v := NewUpdater(), NewUpdater()
		var tokens []uint64
		ask := func(token uint64, id topology.WorkerID) bool {
			tokens = append(tokens, token)
			return false
		}
		u.exchange(never, workers[:1], time.Now().Add(time.Second), ask)
		u.exchange(never, workers[:1], time.Now().Add(time.Second), ask)
		v.exchange(never, workers[:1], time.Now().Add(time.Second), ask)
		if len(tokens) != 3 || tokens[0] == tokens[1] || tokens[2] != tokens[0] {
			t.Fatalf("tokens = %v, want a fresh token per exchange, counted per updater", tokens)
		}
		if len(u.replies) != 0 {
			t.Fatalf("%d exchange(s) still registered after returning", len(u.replies))
		}
	})
}
