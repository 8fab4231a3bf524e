package experiments

import (
	"fmt"
	"time"

	"typhoon/internal/controller"
	"typhoon/internal/core"
	"typhoon/internal/topology"
	"typhoon/internal/workload"
)

// Fig11 regenerates Fig 11: the word-count topology under an input rate
// the configured splitters cannot sustain.
//
// In the baseline (Fig 11a) the overloaded splitter eventually dies with
// an OutOfMemoryError analogue, recovers after restart, and keeps dying —
// count throughput repeatedly dips. In Typhoon (Fig 11b/c) the auto-scaler
// app notices the growing queue from the worker statistics it asks for each
// tick (METRIC_REQ → METRIC_RESP) and adds a third splitter before memory
// runs out, after which throughput is stable and no worker crashes.
func Fig11(p Params) Result {
	p = p.WithDefaults()
	res := Result{ID: "Fig 11", Title: "Auto scaling under overload"}
	for _, mode := range []core.Mode{core.ModeStorm, core.ModeTyphoon} {
		series, summary, err := runOverloadScenario(mode, p)
		if err != nil {
			res.Err = err
			return res
		}
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%s count t/s", modeName(mode)),
			Values: downsample(series, 12),
		})
		res.Rows = append(res.Rows, Row{Label: "  " + modeName(mode) + " summary", Text: summary})
	}
	return res
}

func runOverloadScenario(mode core.Mode, p Params) ([]float64, string, error) {
	crashes := 0
	e, err := startCluster(mode, 3, func(c *core.Config) {
		c.OnWorkerCrash = func(string, topology.WorkerID, error) { crashes++ }
		c.SwitchRingCapacity = 8192
	})
	if err != nil {
		return nil, "", err
	}
	defer e.stop()
	// Queueing-theoretic setup: each splitter serves 1/work ≈ 6.6k
	// tuples/s; the source produces 15k/s, so two splitters are
	// overloaded (queues grow ~1.7k/s) but three are not. The "memory"
	// limit (OOM) is hit after ~2 s of unchecked growth — enough time for
	// Typhoon's auto-scaler to add the third splitter first.
	e.cfg.Set(workload.CfgSourceRate, 15000)
	e.cfg.Set(workload.CfgWorkNanos, 150_000)
	e.cfg.Set(workload.CfgOOMThreshold, 4000)

	var as *controller.AutoScaler
	if mode == core.ModeTyphoon {
		as = controller.NewAutoScaler()
		as.AddPolicy(controller.AutoScalePolicy{
			Topo: "overload", Node: "split",
			ScaleUpQueue: 300, Max: 6, Cooldown: time.Second,
		})
		e.cluster.Controller.AddApp(as)
	}

	b := topology.NewBuilder("overload", 1)
	b.Source("input", workload.LogicSentenceSource, 1)
	b.Node("split", workload.LogicOOMSplitter, 2).ShuffleFrom("input")
	b.Node("count", workload.LogicCounter, 4).FieldsFrom("split", 0)
	l, err := b.Build()
	if err != nil {
		return nil, "", err
	}
	if err := e.cluster.Submit(l, 10*time.Second); err != nil {
		return nil, "", err
	}

	time.Sleep(p.Warmup + 4*p.Measure)

	series := e.stats.Rates("count/")
	splitters := len(e.cluster.WorkersOf("overload", "split"))
	summary := fmt.Sprintf("splitter crashes %d, final splitters %d", crashes, splitters)
	if as != nil {
		summary += fmt.Sprintf(", scale-ups %d", as.ScaleUps())
	}
	return series, summary, nil
}
