package experiments

import (
	"fmt"
	"time"

	"typhoon/internal/control"
	"typhoon/internal/core"
	"typhoon/internal/topology"
	"typhoon/internal/workload"
)

// StableUpdate exercises the §3.5 stable topology update procedures
// (Fig 6): a rate-limited source feeds a stateless splitter and a stateful
// counter; the splitter is scaled up and back down and the counter is
// scaled up, while every tuple is accounted for.
//
// It reports the tuple balance (sent vs received downstream) across the
// reconfigurations and the SIGNAL-driven flushes of the stateful node.
func StableUpdate(p Params) Result {
	p = p.WithDefaults()
	res := Result{ID: "Stable update", Title: "§3.5 stable topology update (zero-loss reconfiguration)"}

	e, err := startCluster(core.ModeTyphoon, 2, nil)
	if err != nil {
		res.Err = err
		return res
	}
	defer e.stop()
	// Bounded source: every emitted sentence must be split downstream.
	e.cfg.Set(workload.CfgSeqLimit, 0)

	b := topology.NewBuilder("stable", 1)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("split", workload.LogicForwarder, 1).ShuffleFrom("src")
	b.Node("count", workload.LogicCounter, 2).FieldsFrom("split", 0).Stateful()
	b.Node("sink", workload.LogicSink, 1).GlobalFrom("count")
	l, err := b.Build()
	if err != nil {
		res.Err = err
		return res
	}
	if err := e.cluster.Submit(l, 10*time.Second); err != nil {
		res.Err = err
		return res
	}
	// Zero-loss guarantees hold under non-saturating load (§8 discusses
	// switch-level drops under overload); throttle the source with an
	// INPUT_RATE control tuple, exercising that path end to end.
	for _, w := range e.cluster.WorkersOf("stable", "src") {
		err := e.cluster.Controller.SendControlTuple("stable", w.ID(),
			control.Encode(control.KindInputRate, control.InputRate{TuplesPerSec: 20000}))
		if err != nil {
			res.Err = err
			return res
		}
	}
	time.Sleep(p.Warmup)

	// Quiesced baseline: pause the source, drain, and snapshot counters,
	// so the balance below covers exactly the reconfiguration window
	// (startup bursts before the rate limit landed are excluded).
	quiesce(e, true)
	time.Sleep(p.Measure / 2)
	emitted0 := totalEmitted(e, "stable", "src")
	processed0 := e.stats.Counter("forward.total").Value()
	quiesce(e, false)

	// Stateless scale-up and scale-down (Fig 6a).
	for _, par := range []int{3, 1} {
		if err := e.cluster.Manager.SetParallelism("stable", "split", par); err != nil {
			res.Err = err
			return res
		}
		if err := e.cluster.Manager.WaitReady("stable", 10*time.Second); err != nil {
			res.Err = err
			return res
		}
		time.Sleep(p.Measure / 2)
	}
	// Stateful scale-up (Fig 6b): SIGNAL flush precedes rerouting.
	if err := e.cluster.Manager.SetParallelism("stable", "count", 3); err != nil {
		res.Err = err
		return res
	}
	if err := e.cluster.Manager.WaitReady("stable", 10*time.Second); err != nil {
		res.Err = err
		return res
	}
	time.Sleep(p.Measure / 2)

	// Quiesce: stop the source, let the pipeline drain, then compare.
	quiesce(e, true)
	time.Sleep(p.Measure)

	emitted := totalEmitted(e, "stable", "src") - emitted0
	processed := e.stats.Counter("forward.total").Value() - processed0
	flushes := e.stats.Counter("count.flushes").Value()
	lost := int64(emitted) - int64(processed)
	res.Rows = []Row{
		{Label: "source emitted", Values: []float64{float64(emitted)}},
		{Label: "splitter processed", Values: []float64{float64(processed)}},
		{Label: "tuples lost", Values: []float64{float64(lost)}},
		{Label: "stateful SIGNAL flushes", Values: []float64{float64(flushes)}},
		{Label: "verdict", Text: verdict(lost == 0 && flushes >= 2)},
	}
	return res
}

// quiesce pauses or resumes the source workers through DEACTIVATE and
// ACTIVATE control tuples.
func quiesce(e *env, pause bool) {
	kind := control.KindActivate
	if pause {
		kind = control.KindDeactivate
	}
	for _, w := range e.cluster.WorkersOf("stable", "src") {
		_ = e.cluster.Controller.SendControlTuple("stable", w.ID(), control.Encode(kind, nil))
	}
}

func totalEmitted(e *env, topo, node string) uint64 {
	var n uint64
	for _, w := range e.cluster.WorkersOf(topo, node) {
		n += w.StatsSnapshot().Emitted
	}
	return n
}

func verdict(ok bool) string {
	if ok {
		return "PASS: zero loss across reconfigurations, stateful caches flushed"
	}
	return fmt.Sprintf("CHECK: see rows above")
}
