package experiments

import (
	"fmt"
	"time"

	"typhoon/internal/controller"
	"typhoon/internal/core"
	"typhoon/internal/topology"
	"typhoon/internal/workload"
)

// Fig12 regenerates Fig 12 and Table 5: live-debugging overhead. A
// source→sink pipeline runs at maximum speed; partway through, live logging
// of the source's tuples is activated and later deactivated.
//
// The baseline taps by emitting every tuple a second time to a
// pre-provisioned debug worker (extra application-level serialization), so
// its throughput drops while the tap is active. Typhoon attaches a debug
// worker dynamically and mirrors frames with switch rules, so its
// throughput is unaffected.
//
// Fig 12's rows report throughput before / during / after the tap plus the
// number of tuples the debug worker captured. Table 5, the live-debugger
// comparison, follows from the two mechanisms' construction in its
// qualitative rows and quantifies them from the same two runs.
func Fig12(p Params) []Result {
	p = p.WithDefaults()
	fig := Result{
		ID:      "Fig 12",
		Title:   "Live debugging overhead (sink tuples/s)",
		Columns: []string{"before", "during", "after", "ser/tuple"},
	}
	table := Result{
		ID:    "Table 5",
		Title: "Storm vs Typhoon: live debugger comparison",
		Rows: []Row{
			{Label: "Debugging granularity", Text: "Storm: entire topology or worker set | Typhoon: each worker"},
			{Label: "Resource requirement", Text: "Storm: pre-provisioned memory and TCP connections | Typhoon: memory allocated on demand"},
			{Label: "Dynamic provisioning", Text: "Storm: no (predefined in topology) | Typhoon: yes (debug worker deployed at runtime)"},
			{Label: "Multiple serialization", Text: "Storm: yes (per-destination copies) | Typhoon: no (switch-level frame mirroring)"},
		},
	}
	for _, mode := range []core.Mode{core.ModeStorm, core.ModeTyphoon} {
		row, captured, err := runDebugScenario(mode, p)
		if err != nil {
			fig.Err, table.Err = err, err
			break
		}
		fig.Rows = append(fig.Rows, row, Row{
			Label: "  " + modeName(mode) + " captured",
			Text:  fmt.Sprintf("%d tuples at debug worker", captured),
		})
		before, during := row.Values[0], row.Values[1]
		table.Rows = append(table.Rows, Row{
			Label: fmt.Sprintf("Measured impact (%s)", modeName(mode)),
			Text: fmt.Sprintf("throughput %.0f → %.0f t/s while debugging (%.0f%% retained), %d tuples captured",
				before, during, 100*during/max(before, 1), captured),
		})
	}
	return []Result{fig, table}
}

func runDebugScenario(mode core.Mode, p Params) (Row, uint64, error) {
	e, err := startCluster(mode, 1, nil)
	if err != nil {
		return Row{}, 0, err
	}
	defer e.stop()

	b := topology.NewBuilder("livedbg", 1)
	b.Source("src", workload.LogicTappableSeqSource, 1)
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("src")
	if mode == core.ModeStorm {
		// Pre-provisioned debug worker wired at application design time
		// (Table 5's "predefined" provisioning).
		b.Node("debug", workload.LogicDebugSink, 1).
			ShuffleFrom("src").OnStream(workload.DebugTapStream)
	}
	l, err := b.Build()
	if err != nil {
		return Row{}, 0, err
	}
	if err := e.cluster.Submit(l, 10*time.Second); err != nil {
		return Row{}, 0, err
	}

	var dbg *controller.LiveDebugger
	srcWorker := e.cluster.WorkersOf("livedbg", "src")[0]
	before := e.rate("sink.total", p.Warmup, p.Measure)
	seen0 := e.stats.Counter("debug.seen").Value()

	// Activate the tap.
	if mode == core.ModeStorm {
		e.cfg.Set(workload.CfgDebugTap, 1)
	} else {
		dbg = controller.NewLiveDebugger()
		e.cluster.Controller.AddApp(dbg)
		src := e.cluster.WorkersOf("livedbg", "src")
		if len(src) != 1 {
			return Row{}, 0, fmt.Errorf("experiments: source missing")
		}
		if _, err := dbg.Attach(e.cluster.Controller, "livedbg", src[0].ID(), workload.LogicDebugSink); err != nil {
			return Row{}, 0, err
		}
	}
	// Measure the tap window, tracking the intrinsic cost: source-side
	// serializations per pipeline tuple (2.0 for the baseline's extra
	// copy, 1.0 for Typhoon's switch-level mirroring). The tap is live
	// once mirrored tuples reach the debug sink — wait on that evidence
	// instead of a fixed fraction of the warmup.
	await(p.Warmup, func() bool {
		return e.stats.Counter("debug.seen").Value() > seen0
	})
	emittedCounter := fmt.Sprintf("emitted/src/%d", srcWorker.ID())
	ser0 := srcWorker.Transport().Stats().Serializations
	emit0 := e.stats.Counter(emittedCounter).Value()
	sink0 := e.stats.Counter("sink.total").Value()
	start := time.Now()
	time.Sleep(p.Measure)
	during := float64(e.stats.Counter("sink.total").Value()-sink0) / time.Since(start).Seconds()
	serPerTuple := float64(srcWorker.Transport().Stats().Serializations-ser0) /
		max(float64(e.stats.Counter(emittedCounter).Value()-emit0), 1)
	captured := e.stats.Counter("debug.seen").Value()

	// Deactivate the tap.
	if mode == core.ModeStorm {
		e.cfg.Set(workload.CfgDebugTap, 0)
	} else {
		src := e.cluster.WorkersOf("livedbg", "src")
		if err := dbg.Detach(e.cluster.Controller, "livedbg", src[0].ID()); err != nil {
			return Row{}, 0, err
		}
	}
	after := e.rate("sink.total", p.Warmup/2, p.Measure)

	return Row{
		Label:  modeName(mode),
		Values: []float64{before, during, after, serPerTuple},
	}, captured, nil
}
