package experiments

import (
	"testing"
	"time"

	"typhoon/internal/control"
	"typhoon/internal/core"
	"typhoon/internal/topology"
	"typhoon/internal/workload"
)

// TestReconfigurationZeroLoss asserts the §3.5 stable-update property
// behind Fig 6 at the tuple level: under non-saturating load, scale-up and
// scale-down of a stateless node (Fig 6a) and scale-up of a stateful node
// (Fig 6b) lose no tuples (counted via the stats registry, which survives
// worker removal), and the stateful scale-up flushes every old worker's
// cache with a SIGNAL before rerouting.
func TestReconfigurationZeroLoss(t *testing.T) {
	e, err := startCluster(core.ModeTyphoon, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	b := topology.NewBuilder("stable", 1)
	b.Source("src", workload.LogicSeqSource, 1)
	b.Node("split", workload.LogicForwarder, 1).ShuffleFrom("src")
	b.Node("count", workload.LogicCounter, 2).FieldsFrom("split", 0).Stateful()
	b.Node("sink", workload.LogicSink, 1).GlobalFrom("count")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.cluster.Submit(l, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, w := range e.cluster.WorkersOf("stable", "src") {
		err := e.cluster.Controller.SendControlTuple("stable", w.ID(),
			control.Encode(control.KindInputRate, control.InputRate{TuplesPerSec: 20000}))
		if err != nil {
			t.Fatal(err)
		}
	}
	if !await(5*time.Second, func() bool {
		return e.stats.Counter("forward.total").Value() > 1000
	}) {
		t.Fatal("stream never got underway")
	}

	balance := func(tag string) {
		t.Helper()
		quiesce(e, true)
		// Settle: the pause control tuple is asynchronous, so require the
		// emitted count to hold still across several consecutive polls with
		// processing fully caught up before declaring the stream drained. A
		// timeout means the counts never converged — i.e. tuples were lost.
		var last, emitted, processed uint64
		stable := 0
		if !await(10*time.Second, func() bool {
			emitted = totalEmitted(e, "stable", "src")
			processed = e.stats.Counter("forward.total").Value()
			if emitted > 0 && emitted == last && processed == emitted {
				stable++
			} else {
				stable = 0
			}
			last = emitted
			return stable >= 5
		}) {
			t.Fatalf("%s: never drained clean: emitted %d, processed %d (lost %d)",
				tag, emitted, processed, int64(emitted)-int64(processed))
		}
		quiesce(e, false)
	}
	// awaitFlow waits for traffic to actually move through the updated
	// placement before the next balance check.
	awaitFlow := func() {
		t.Helper()
		before := e.stats.Counter("forward.total").Value()
		if !await(5*time.Second, func() bool {
			return e.stats.Counter("forward.total").Value() > before+1000
		}) {
			t.Fatal("flow never resumed after reconfiguration")
		}
	}

	balance("steady state")
	if err := e.cluster.Manager.SetParallelism("stable", "split", 3); err != nil {
		t.Fatal(err)
	}
	if err := e.cluster.Manager.WaitReady("stable", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	awaitFlow()
	balance("after scale-up 1->3")

	if err := e.cluster.Manager.SetParallelism("stable", "split", 1); err != nil {
		t.Fatal(err)
	}
	if err := e.cluster.Manager.WaitReady("stable", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	awaitFlow()
	balance("after scale-down 3->1")

	flushes0 := e.stats.Counter("count.flushes").Value()
	if err := e.cluster.Manager.SetParallelism("stable", "count", 3); err != nil {
		t.Fatal(err)
	}
	if err := e.cluster.Manager.WaitReady("stable", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	awaitFlow()
	balance("after stateful scale-up 2->3")
	if flushes := e.stats.Counter("count.flushes").Value() - flushes0; flushes < 2 {
		t.Fatalf("stateful scale-up 2->3: %d SIGNAL flushes, want at least 2 (one per old count worker)", flushes)
	}
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
