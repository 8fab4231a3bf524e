package scenario

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"typhoon/internal/conformance/stream"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
	"typhoon/internal/workload"
)

// EnvRun is the shared-environment key holding the active *runState.
const EnvRun = "scenario.run"

// Logic names registered by this package.
const (
	LogicOpenLoopSource = "scenario/open-loop-source"
	LogicKeyedStage     = "scenario/keyed-stage"
	LogicLatencySink    = "scenario/latency-sink"
)

func init() {
	worker.RegisterLogic(LogicOpenLoopSource, func() worker.Component { return &OpenLoopSource{} })
	worker.RegisterLogic(LogicKeyedStage, func() worker.Component { return &KeyedStage{} })
	worker.RegisterLogic(LogicLatencySink, func() worker.Component { return &LatencySink{} })
}

// runState is one scenario's shared run state: the trace clock epoch and the
// per-tenant generators, checkers, and trajectories. It lives in the
// cluster's SharedEnv so components survive worker restarts without
// losing run state — a crashed source resumes the trace where the old
// instance left off instead of replaying it.
type runState struct {
	spec Spec
	// epoch is the trace clock's zero as unix nanoseconds; 0 means not
	// yet armed, and sources idle until it is. The runner arms it after
	// every tenant topology is submitted and ready, so all traces share
	// one consistent clock.
	epoch   atomic.Int64
	tenants map[string]*tenantState
}

// newRunState builds the run state for a normalized spec.
func newRunState(spec Spec) (*runState, error) {
	r := &runState{spec: spec, tenants: make(map[string]*tenantState, len(spec.Tenants))}
	for _, ts := range spec.Tenants {
		tr, err := workload.NewTrace(ts.Trace)
		if err != nil {
			return nil, fmt.Errorf("scenario: tenant %s: %w", ts.Name, err)
		}
		r.tenants[ts.Name] = &tenantState{
			spec:    ts,
			trace:   tr,
			playFor: spec.Duration.D(),
			checker: stream.New(!spec.Relaxed, false),
			open:    NewTrajectory(spec.SampleInterval.D()),
			closed:  NewTrajectory(spec.SampleInterval.D()),
			emitted: make(map[string]int64),
		}
	}
	return r, nil
}

// Arm starts the trace clock at epoch.
func (r *runState) Arm(epoch time.Time) { r.epoch.Store(epoch.UnixNano()) }

// Epoch returns the armed trace clock zero (zero time when unarmed).
func (r *runState) Epoch() time.Time {
	n := r.epoch.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// tenant returns a tenant's run state, or nil.
func (r *runState) tenant(name string) *tenantState { return r.tenants[name] }

// tenantState is one tenant's live run state.
type tenantState struct {
	spec    TenantSpec
	playFor time.Duration
	checker *stream.Checker
	open    *Trajectory // intended-start (open-loop) latency
	closed  *Trajectory // send-stamped (closed-loop) latency

	mu      sync.Mutex
	trace   *workload.Trace
	pending *workload.TraceEvent // generated but not yet due
	done    bool                 // trace exhausted or past playFor
	emitted map[string]int64     // per-key emitted high-water mark
	nsent   int64
}

// Checker exposes the tenant's conformance checker.
func (t *tenantState) Checker() *stream.Checker { return t.checker }

// OpenLoop exposes the intended-start latency trajectory.
func (t *tenantState) OpenLoop() *Trajectory { return t.open }

// ClosedLoop exposes the send-stamped latency trajectory.
func (t *tenantState) ClosedLoop() *Trajectory { return t.closed }

// SourceDone reports whether the tenant's trace has finished playing.
func (t *tenantState) SourceDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Emitted snapshots the per-key emitted counts and their total.
func (t *tenantState) Emitted() (map[string]int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.emitted))
	var total int64
	for k, n := range t.emitted {
		out[k] = n
		total += n
	}
	return out, total
}

// next hands the source its next due event under the trace clock: ok only
// when an event's intended time has arrived. Events are consumed exactly
// once even across source restarts — the cursor lives here, not in the
// component.
func (t *tenantState) next(elapsed time.Duration) (workload.TraceEvent, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return workload.TraceEvent{}, false
	}
	if t.pending == nil {
		ev, ok := t.trace.Next()
		if !ok || ev.At >= t.playFor {
			t.done = true
			return workload.TraceEvent{}, false
		}
		t.pending = &ev
	}
	if t.pending.At > elapsed {
		return workload.TraceEvent{}, false
	}
	ev := *t.pending
	t.pending = nil
	t.emitted[ev.Key] = ev.Seq
	t.nsent++
	return ev, true
}

// tenantOf resolves a component's tenant state from its node name
// ("src@alpha"): the worker context exposes the node name but not the
// topology, so the tenant rides after the "@".
func tenantOf(ctx *worker.Context) (*runState, *tenantState, error) {
	env := ctx.Env()
	if env == nil {
		return nil, nil, fmt.Errorf("scenario: no shared environment")
	}
	run, _ := env.Get(EnvRun).(*runState)
	if run == nil {
		return nil, nil, fmt.Errorf("scenario: no active run in environment")
	}
	_, name, ok := strings.Cut(ctx.Node(), "@")
	if !ok {
		return nil, nil, fmt.Errorf("scenario: node %q carries no tenant suffix", ctx.Node())
	}
	t := run.tenant(name)
	if t == nil {
		return nil, nil, fmt.Errorf("scenario: unknown tenant %q", name)
	}
	return run, t, nil
}

// OpenLoopSource plays a tenant's trace open-loop: each event is emitted
// when the trace clock says so, never when the pipeline finishes prior
// work. When the pipeline (or this very worker) stalls, overdue events
// burst out on recovery with their original intended times attached — the
// stall is visible in the intended-start latency instead of silently
// thinning the load, which is exactly the coordinated-omission fix.
//
// Emitted fields: key, seq, intended start (unix ns), actual send (unix ns).
type OpenLoopSource struct {
	run    *runState
	tenant *tenantState
}

// Open implements worker.Component.
func (s *OpenLoopSource) Open(ctx *worker.Context) error {
	var err error
	s.run, s.tenant, err = tenantOf(ctx)
	return err
}

// Close implements worker.Component.
func (s *OpenLoopSource) Close(*worker.Context) error { return nil }

// Next implements worker.Spout.
func (s *OpenLoopSource) Next(ctx *worker.Context) (bool, error) {
	epoch := s.run.epoch.Load()
	if epoch == 0 {
		return false, nil // clock not armed yet; the worker loop backs off
	}
	now := time.Now().UnixNano()
	ev, ok := s.tenant.next(time.Duration(now - epoch))
	if !ok {
		return false, nil
	}
	intended := epoch + int64(ev.At)
	ctx.Emit(tuple.String(ev.Key), tuple.Int(ev.Seq), tuple.Int(intended), tuple.Int(time.Now().UnixNano()))
	return true, nil
}

// KeyedStage is the stateful stage under chaos and rescale: per-key
// running counts carried as migratable state, forwarded for the sink's
// state-integrity check. After a crash restart the counts restart empty;
// the checker's CounterMismatch separates tolerated forward gaps (drops,
// relaxed mode) from replays and corruption, which are always violations.
type KeyedStage struct {
	tenant *tenantState
	counts map[string]int64
}

// Open implements worker.Component.
func (k *KeyedStage) Open(ctx *worker.Context) error {
	var err error
	_, k.tenant, err = tenantOf(ctx)
	k.counts = make(map[string]int64)
	return err
}

// Close implements worker.Component.
func (k *KeyedStage) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (k *KeyedStage) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	key := in.Field(0).AsString()
	seq := in.Field(1).AsInt()
	if want := k.counts[key] + 1; seq != want && k.counts[key] != 0 {
		// A fresh instance (restart or migrated-in key) starts blind at
		// 0; only a tracked key's discontinuity is reportable.
		k.tenant.checker.CounterMismatch(key, seq, want)
	}
	k.counts[key] = seq
	ctx.Emit(in.Field(0), in.Field(1), in.Field(2), in.Field(3), tuple.Int(k.counts[key]))
	return nil
}

// SnapshotState implements worker.StatefulComponent.
func (k *KeyedStage) SnapshotState(_ *worker.Context, r worker.KeyRange) (map[string][]byte, error) {
	return worker.SnapshotCounts(k.counts, r), nil
}

// RestoreState implements worker.StatefulComponent (replace semantics).
func (k *KeyedStage) RestoreState(_ *worker.Context, state map[string][]byte) error {
	counts, err := worker.RestoreCounts(state)
	if err != nil {
		return err
	}
	k.counts = counts
	return nil
}

// LatencySink terminates a tenant pipeline: every delivery feeds the
// conformance checker and both latency trajectories. Open-loop latency is
// arrival minus the intended start from the trace clock; closed-loop is
// arrival minus the actual send stamp — the number a completion-paced
// harness would report, recorded side by side to expose the gap.
// Parallelism must be 1 so the checker observes one global arrival order.
type LatencySink struct {
	run    *runState
	tenant *tenantState
}

// Open implements worker.Component.
func (s *LatencySink) Open(ctx *worker.Context) error {
	var err error
	s.run, s.tenant, err = tenantOf(ctx)
	return err
}

// Close implements worker.Component.
func (s *LatencySink) Close(*worker.Context) error { return nil }

// Execute implements worker.Bolt.
func (s *LatencySink) Execute(_ *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	key := in.Field(0).AsString()
	seq := in.Field(1).AsInt()
	intended := in.Field(2).AsInt()
	sent := in.Field(3).AsInt()
	count := in.Field(4).AsInt()
	now := time.Now().UnixNano()
	if s.tenant.checker.Observe(key, seq, count) {
		at := time.Duration(intended - s.run.epoch.Load())
		s.tenant.open.Record(at, time.Duration(now-intended))
		s.tenant.closed.Record(at, time.Duration(now-sent))
	}
	return nil
}
