// Package control defines the control tuples of Table 2: the vocabulary the
// Typhoon SDN controller uses to reconfigure running workers through the
// data plane (PacketOut → switch → worker framework layer) and the replies
// workers send back (PacketIn).
//
// A control tuple is an ordinary tuple on tuple.ControlStream whose first
// field is the command kind and whose second field is a JSON payload, so it
// travels through exactly the same packetization and switching machinery as
// application data.
package control

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

// Kind names a control tuple type (Table 2).
type Kind string

// Control tuple kinds. Each comment names the payload struct, who emits the
// tuple, and who consumes it; "controller → worker" kinds ride PACKET_OUT
// through the switch onto the worker's port, "worker → controller" kinds are
// punted to the controller by the control-stream flow rule and dispatched to
// apps via App.OnControlTuple (METRIC_RESP is recorded by the host first).
const (
	// KindRouting updates a worker's routing state (§3.3.2). Payload
	// Routing. Emitted by the controller's reconfiguration sync and the
	// fault-detector app; consumed by the worker framework layer, which
	// swaps its routing table atomically between tuples.
	KindRouting Kind = "ROUTING"
	// KindSignal makes stateful workers flush their in-memory cache (§3.5).
	// No payload. Emitted by the controller during stable stateful
	// reconfiguration; consumed by the worker, which forwards a signal
	// tuple to the application layer (Listing 2's isSignalTuple pattern).
	KindSignal Kind = "SIGNAL"
	// KindMetricReq requests a worker's internal statistics. Payload
	// MetricReq. Emitted by the controller's app host — one sweep per
	// owned topology per tick, whichever apps asked (token 0) — and by the
	// updater's drain barrier (its own tokens); consumed by the worker
	// framework layer, which answers with a KindMetricResp carrying the
	// request's token.
	KindMetricReq Kind = "METRIC_REQ"
	// KindMetricResp carries a worker's statistics to the controller.
	// Payload MetricResp. Emitted by workers — both as the answer to
	// KindMetricReq and unsolicited every StatsInterval (Fig 4's worker
	// statistics reporter); consumed by the controller's app host, which
	// decodes it once into its (topology, worker) table — what the §4 apps,
	// /api/v1/top and the typhoon_worker_* metrics read — and by the
	// updater, which matches its barrier's tokens.
	KindMetricResp Kind = "METRIC_RESP"
	// KindInputRate throttles a worker's input processing rate. Payload
	// InputRate. Emitted by controller apps (experiments use it to shape
	// load); consumed by the worker's input loop.
	KindInputRate Kind = "INPUT_RATE"
	// KindActivate unthrottles the first workers of a topology. No
	// payload. Emitted by the controller once rules for a new generation
	// are installed, so sources only emit into a programmed data plane;
	// consumed by source workers started inactive.
	KindActivate Kind = "ACTIVATE"
	// KindDeactivate throttles the first workers of a topology. No
	// payload. Emitted by the controller ahead of disruptive
	// reconfigurations; consumed by source workers.
	KindDeactivate Kind = "DEACTIVATE"
	// KindBatchSize adjusts the I/O layer batch size. Payload BatchSize.
	// Emitted by controller apps tuning the latency/throughput trade-off
	// of Fig 8; consumed by the worker's transport.
	KindBatchSize Kind = "BATCH_SIZE"
	// KindSnapshotReq asks a stateful worker for the state entries of a
	// key-partition range (§3.5 stable update). Payload SnapshotReq.
	// Emitted by the controller's updater app during a managed rescale;
	// consumed by the worker framework layer, which answers with a
	// KindSnapshotResp (empty for non-stateful logic, so the protocol
	// never hangs on a misdeclared node).
	KindSnapshotReq Kind = "SNAPSHOT_REQ"
	// KindSnapshotResp carries a worker's state snapshot back to the
	// controller. Payload SnapshotResp.
	KindSnapshotResp Kind = "SNAPSHOT_RESP"
	// KindRestore replaces a stateful worker's state with migrated
	// entries (§3.5). Payload Restore. Emitted by the updater app after
	// the new flow rules are installed; consumed by the worker framework
	// layer, which answers with a KindRestoreResp.
	KindRestore Kind = "RESTORE"
	// KindRestoreResp acknowledges a KindRestore. Payload RestoreResp.
	KindRestoreResp Kind = "RESTORE_RESP"
)

// ErrNotControl is returned when decoding a non-control tuple.
var ErrNotControl = errors.New("control: not a control tuple")

// Routing is the payload of KindRouting: the complete new routing table for
// the worker (policy-independent and policy-specific state of Listing 1).
type Routing struct {
	Routes []topology.Route `json:"routes"`
}

// InputRate is the payload of KindInputRate; zero or negative means
// unlimited.
type InputRate struct {
	TuplesPerSec float64 `json:"tuplesPerSec"`
}

// BatchSize is the payload of KindBatchSize. Zero values mean "unchanged":
// Size <= 0 leaves the batch threshold alone, FlushDeadline == 0 leaves the
// staging deadline alone (negative disables it).
type BatchSize struct {
	Size          int           `json:"size"`
	FlushDeadline time.Duration `json:"flushDeadlineNs,omitempty"`
}

// MetricReq is the payload of KindMetricReq.
type MetricReq struct {
	// Token correlates the reply.
	Token uint64 `json:"token"`
}

// MetricResp is the payload of KindMetricResp: the worker statistics rows
// the auto-scaler consumes (queue status, emitted tuples, Table 2).
type MetricResp struct {
	Token     uint64            `json:"token"`
	Worker    topology.WorkerID `json:"worker"`
	Node      string            `json:"node"`
	QueueLen  int               `json:"queueLen"`
	Processed uint64            `json:"processed"`
	Emitted   uint64            `json:"emitted"`
	// GaveUp counts tracked source tuples dropped after their last replay
	// attempt (worker.Stats.GaveUp).
	GaveUp  uint64 `json:"gaveUp"`
	Dropped uint64 `json:"dropped"`
	// ProcNanos is the cumulative time, in nanoseconds, the worker spent
	// dispatching received batches that executed at least one tuple, with
	// rate-limit waits taken out. It is charged when a batch ends.
	ProcNanos uint64 `json:"procNanos"`
}

// SnapshotReq is the payload of KindSnapshotReq: the key-partition range
// whose state entries the controller wants (see worker.KeyRange).
type SnapshotReq struct {
	// Token correlates the reply.
	Token uint64 `json:"token"`
	// From/To select the partitions [From, To).
	From uint32 `json:"from"`
	To   uint32 `json:"to"`
}

// SnapshotResp is the payload of KindSnapshotResp: one worker's state
// entries for the requested range, keyed by routing key. Blob values are
// opaque to the framework (JSON carries them base64-encoded).
type SnapshotResp struct {
	Token  uint64            `json:"token"`
	Worker topology.WorkerID `json:"worker"`
	Node   string            `json:"node"`
	State  map[string][]byte `json:"state,omitempty"`
}

// Restore is the payload of KindRestore: the complete new state of the
// receiving worker (replace semantics — entries absent here are dropped).
type Restore struct {
	Token uint64            `json:"token"`
	State map[string][]byte `json:"state,omitempty"`
}

// RestoreResp is the payload of KindRestoreResp.
type RestoreResp struct {
	Token  uint64            `json:"token"`
	Worker topology.WorkerID `json:"worker"`
}

// Encode builds the control tuple for a command. The payload may be nil for
// kinds without parameters (SIGNAL, ACTIVATE, DEACTIVATE).
func Encode(kind Kind, payload any) tuple.Tuple {
	var body []byte
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			panic("control: unmarshalable payload: " + err.Error())
		}
		body = b
	}
	return tuple.OnStream(tuple.ControlStream, tuple.String(string(kind)), tuple.Bytes(body))
}

// DecodeKind extracts the command kind of a control tuple.
func DecodeKind(t tuple.Tuple) (Kind, error) {
	if !t.Stream.IsControl() || t.Len() < 1 {
		return "", ErrNotControl
	}
	return Kind(t.Field(0).AsString()), nil
}

// DecodePayload unmarshals a control tuple's payload into out.
func DecodePayload(t tuple.Tuple, out any) error {
	if !t.Stream.IsControl() || t.Len() < 2 {
		return ErrNotControl
	}
	body := t.Field(1).AsBytes()
	if len(body) == 0 {
		return fmt.Errorf("control: empty payload")
	}
	return json.Unmarshal(body, out)
}

// NewSignal builds the flush-signal tuple stateful workers consume
// (Listing 2's isSignalTuple pattern). It travels on tuple.SignalStream so
// it reaches the application layer rather than being consumed by the
// framework layer.
func NewSignal() tuple.Tuple {
	return tuple.OnStream(tuple.SignalStream)
}

// IsSignal reports whether t is a flush signal.
func IsSignal(t tuple.Tuple) bool { return t.Stream.IsSignal() }
