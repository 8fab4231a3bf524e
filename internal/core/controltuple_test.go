package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"typhoon/internal/control"
	"typhoon/internal/controller"
	"typhoon/internal/packet"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/workload"
)

// restoreAcks records the tokens of the RESTORE_RESP tuples workers send.
type restoreAcks struct {
	controller.BaseApp
	mu     sync.Mutex
	tokens map[uint64]bool
}

func (*restoreAcks) Name() string { return "restore-acks" }

func (a *restoreAcks) OnControlTuple(_ *controller.Controller, _ string, _ packet.Addr, t tuple.Tuple) {
	if kind, err := control.DecodeKind(t); err != nil || kind != control.KindRestoreResp {
		return
	}
	var resp control.RestoreResp
	if control.DecodePayload(t, &resp) == nil {
		a.mu.Lock()
		a.tokens[resp.Token] = true
		a.mu.Unlock()
	}
}

func (a *restoreAcks) acked(token uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tokens[token]
}

// TestControlTupleAboveOneMessageIsDelivered sends RESTOREs larger than one
// OpenFlow message (1 MiB) to a stateful worker. The controller must frame
// them as segment trains, one PACKET_OUT per frame: the worker acknowledges
// each, and the switch keeps its controller connection.
func TestControlTupleAboveOneMessageIsDelivered(t *testing.T) {
	c, _, cfg := newCluster(t, ModeTyphoon, "h1")
	cfg.Set(workload.CfgSeqLimit, 1000)
	acks := &restoreAcks{tokens: map[uint64]bool{}}
	c.Controller.AddApp(acks)

	b := topology.NewBuilder("restore", 1)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("count", workload.LogicCounter, 1).FieldsFrom("src", 0).Stateful()
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	counts := c.WorkersOf("restore", "count")
	if len(counts) != 1 {
		t.Fatalf("count workers = %d, want 1", len(counts))
	}
	for i, keys := range []int{60_000, 120_000} {
		token := uint64(i + 1)
		state := make(map[string][]byte, keys)
		for k := 0; k < keys; k++ {
			state[fmt.Sprintf("k%d", k)] = []byte("01234567")
		}
		ct := control.Encode(control.KindRestore, control.Restore{Token: token, State: state})
		if err := c.Controller.SendControlTuple("restore", counts[0].ID(), ct); err != nil {
			t.Fatalf("%d keys: %v", keys, err)
		}
		waitCond(t, 10*time.Second, fmt.Sprintf("RESTORE_RESP for %d keys", keys), func() bool {
			return acks.acked(token)
		})
		if dps := c.Controller.Datapaths(); len(dps) != 1 {
			t.Fatalf("after %d keys: datapaths %v, want [h1]", keys, dps)
		}
	}
}
