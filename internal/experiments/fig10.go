package experiments

import (
	"fmt"
	"time"

	"typhoon/internal/controller"
	"typhoon/internal/core"
	"typhoon/internal/topology"
	"typhoon/internal/workload"
)

// Fig10 regenerates Fig 10: the word-count topology (1 source, 2 split, 4
// count on 3 hosts) with one split worker failing mid-run.
//
// In Storm (Fig 10a) the dead splitter's share of traffic is lost until
// heartbeat-timeout rescheduling — and stays lost because the restarted
// worker keeps failing, so aggregate count throughput drops roughly in
// half. In Typhoon (Fig 10b) the fault detector sees the switch port
// disappear and immediately redirects tuples to the surviving splitter, so
// the aggregate recovers at once.
//
// Rows are the aggregate count-worker throughput time series (tuples/s,
// downsampled), plus summary statistics.
func Fig10(p Params) Result {
	p = p.WithDefaults()
	res := Result{ID: "Fig 10", Title: "Fault recovery: aggregate count throughput over time"}
	for _, mode := range []core.Mode{core.ModeStorm, core.ModeTyphoon} {
		series, summary, err := runFaultScenario(mode, p)
		if err != nil {
			res.Err = err
			return res
		}
		res.Rows = append(res.Rows, Row{
			Label:  fmt.Sprintf("%s (t/s)", modeName(mode)),
			Values: downsample(series, 12),
		})
		res.Rows = append(res.Rows, Row{Label: "  " + modeName(mode) + " summary", Text: summary})
	}
	return res
}

func runFaultScenario(mode core.Mode, p Params) ([]float64, string, error) {
	crashes := 0
	e, err := startCluster(mode, 3, func(c *core.Config) {
		c.OnWorkerCrash = func(string, topology.WorkerID, error) { crashes++ }
	})
	if err != nil {
		return nil, "", err
	}
	defer e.stop()
	e.cfg.Set(workload.CfgSourceRate, 8000)
	var fd *controller.FaultDetector
	if mode == core.ModeTyphoon {
		fd = controller.NewFaultDetector()
		e.cluster.Controller.AddApp(fd)
	}

	b := topology.NewBuilder("wordcount", 1)
	b.Source("input", workload.LogicSentenceSource, 1)
	b.Node("split", workload.LogicFaultySplitter, 2).ShuffleFrom("input")
	b.Node("count", workload.LogicCounter, 4).FieldsFrom("split", 0)
	l, err := b.Build()
	if err != nil {
		return nil, "", err
	}
	if err := e.cluster.Submit(l, 10*time.Second); err != nil {
		return nil, "", err
	}

	// Healthy phase, fault, observation phase. A controlled input rate
	// keeps the effect attributable to the fault, not CPU contention.
	time.Sleep(p.Warmup + p.Measure)
	preRate := e.rate("count.total", 0, p.Measure)
	e.cfg.Set(workload.CfgFaultIndex, 0)
	e.cfg.Set(workload.CfgFaultArmed, 1)
	time.Sleep(p.Measure)
	postRate := e.rate("count.total", 0, p.Measure)

	series := e.stats.Rates("count/")
	summary := fmt.Sprintf("pre-fault %.0f t/s, post-fault %.0f t/s (%.0f%%), crashes %d",
		preRate, postRate, 100*postRate/max(preRate, 1), crashes)
	if fd != nil {
		summary += fmt.Sprintf(", detected %d", fd.Detected())
	}
	return series, summary, nil
}
