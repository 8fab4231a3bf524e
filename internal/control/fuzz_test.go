package control

import (
	"reflect"
	"testing"

	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// samples holds one payload of every kind (nil for the kinds that carry
// none): the fuzz seeds, and the types a payload may be decoded as.
var samples = map[Kind]any{
	KindRouting: Routing{Routes: []topology.Route{{
		Edge:     topology.EdgeSpec{From: "a", To: "b", Policy: topology.Fields, HashFields: []int{0}},
		NextHops: []topology.WorkerID{3, 4},
	}}},
	KindSignal:       nil,
	KindMetricReq:    MetricReq{Token: 9},
	KindMetricResp:   MetricResp{Token: 1, Worker: 2, Node: "split", QueueLen: 3, Processed: 4, Emitted: 5, Dropped: 6, ProcNanos: 7},
	KindInputRate:    InputRate{TuplesPerSec: 1000},
	KindActivate:     nil,
	KindDeactivate:   nil,
	KindBatchSize:    BatchSize{Size: 250, FlushDeadline: 1000},
	KindSnapshotReq:  SnapshotReq{Token: 1, From: 0, To: 64},
	KindSnapshotResp: SnapshotResp{Token: 1, Worker: 2, Node: "count", State: map[string][]byte{"k": {1, 2}}},
	KindRestore:      Restore{Token: 1, State: map[string][]byte{"k": {}}},
	KindRestoreResp:  RestoreResp{Token: 1, Worker: 2},
}

// FuzzDecodeControl feeds arbitrary bytes through the path a PacketIn takes
// in the controller (tuple decode, DecodeKind, DecodePayload). Nothing may
// panic whatever kind the payload is decoded as, and a payload that decodes
// is a fixed point: re-encoded, it decodes to a value that encodes the same.
func FuzzDecodeControl(f *testing.F) {
	for kind, payload := range samples {
		f.Add(tuple.Encode(Encode(kind, payload)))
	}
	f.Add(tuple.Encode(tuple.New(tuple.Int(1))))
	f.Add(tuple.Encode(tuple.OnStream(tuple.ControlStream, tuple.Int(1), tuple.String("{"))))
	f.Fuzz(func(t *testing.T, raw []byte) {
		tp, _, err := tuple.Decode(raw)
		if err != nil {
			return
		}
		_, _ = DecodeKind(tp)
		for kind, sample := range samples {
			if sample == nil {
				continue
			}
			first := reflect.New(reflect.TypeOf(sample))
			if DecodePayload(tp, first.Interface()) != nil {
				continue
			}
			again := Encode(kind, first.Elem().Interface())
			second := reflect.New(reflect.TypeOf(sample))
			if err := DecodePayload(again, second.Interface()); err != nil {
				t.Fatalf("%s: %+v decoded but its re-encoding does not: %v", kind, first.Elem(), err)
			}
			if !again.Equal(Encode(kind, second.Elem().Interface())) {
				t.Fatalf("%s: %+v re-decoded as %+v", kind, first.Elem(), second.Elem())
			}
		}
	})
}
