package main

import (
	"fmt"
	"math"
	"time"

	"typhoon/internal/core"
)

// plan is how one pass spends its measured seconds.
type plan struct {
	warm   time.Duration // unrecorded lead-in of every phase
	low    time.Duration
	mid    time.Duration
	sat    time.Duration
	traced time.Duration // traced pass: mid again with default trace sampling
	storm  time.Duration // traced pass: sat on the Storm baseline
	setups int           // clusters built for the set-up median
	shrink int           // probe op counts are divided by this
}

// planFor splits seconds over the phases. The untraced pass gives the
// open-loop low phase a quarter and mid and sat three eighths each; the
// traced pass runs all three shorter to make room for its extra phases.
func planFor(seconds float64, traced, smoke bool) plan {
	s := time.Duration(seconds * float64(time.Second))
	p := plan{warm: s / 20, setups: 9, shrink: 1}
	if p.warm > time.Second {
		p.warm = time.Second
	}
	if traced {
		p.low, p.mid, p.sat = s*3/20, s/4, s/5
		p.traced, p.storm = s/4, s*3/20
		p.setups = 1
	} else {
		p.low, p.mid, p.sat = s/4, s*3/8, s*3/8
	}
	if smoke {
		p.setups, p.shrink = 2, 20
	}
	return p
}

// options are the knobs of one pass.
type options struct {
	workload   *workload
	seed       int64
	seconds    float64
	traced     bool
	smoke      bool
	injectLoss bool // test hook: skip one sequence number so the checker must object
	outDir     string
}

// result is what one pass measured.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	fails     []string
}

// rescalesIn is how many rescales fit a mid window: the full six when
// there is a second for each, otherwise the 2→4→2 pair.
func rescalesIn(w *workload, mid time.Duration) int {
	switch {
	case !w.rescale:
		return 0
	case mid >= 6*time.Second:
		return 6
	default:
		return 2
	}
}

// pass is one measurement of one workload in progress.
type pass struct {
	o    options
	p    plan
	w    *workload
	g    *generator
	logf func(string, ...any)
	res  *result

	tr   *tracer // traced pass only
	root int     // the pass's root span

	replays   int    // phases played again because the host stole CPU from them
	awaitCalm func() // what a replay waits on; tests substitute a no-op
}

// measured is what the three phases every pass runs produced.
type measured struct {
	setups        []float64 // seconds, one per cluster built
	submitMs      float64
	low, mid, sat *phaseStats
}

// runPass measures one workload once: the end-to-end metrics with
// tracing off, or (traced) the per-layer metrics.
func runPass(o options, logf func(string, ...any)) (*result, error) {
	ps := &pass{
		o: o, p: planFor(o.seconds, o.traced, o.smoke), w: o.workload,
		g: newGenerator(o.seed, o.workload.payload), logf: logf,
		res:       &result{metrics: make(map[string]float64)},
		awaitCalm: awaitCalm,
	}
	if o.traced {
		ps.tr = newTracer()
		ps.root = ps.tr.begin("traced-pass:"+ps.w.name, 0)
	}
	ms, err := ps.mainPhases()
	if err != nil {
		return nil, err
	}
	if !o.traced {
		ps.endToEnd(ms)
		return ps.res, nil
	}
	ps.layerCounters(ms)
	if err := ps.tracedMid(ms.mid); err != nil {
		return nil, err
	}
	if err := ps.stormSat(ms.sat); err != nil {
		return nil, err
	}
	pr := &prober{tr: ps.tr, g: ps.g, w: ps.w, shrink: ps.p.shrink, out: ps.res.metrics}
	ps.spanned("probes", func(id int) {
		pr.parent = id
		pr.runAll()
	})
	ps.res.metrics["core.peak_rss_mb"] = peakRSSMB()
	ps.tr.end(ps.root)
	if err := checkNesting(ps.tr.spans); err != nil {
		ps.res.failed++
		ps.res.fails = append(ps.res.fails, "trace: "+err.Error())
	}
	if err := ps.tr.dump(o.outDir, ps.w.name, o.seed); err != nil {
		logf("trace.json not written: %v", err)
	}
	return ps.res, nil
}

// spanned runs fn inside a span under the pass's root (traced pass), or
// bare.
func (ps *pass) spanned(name string, fn func(span int)) {
	if ps.tr == nil {
		fn(0)
		return
	}
	id := ps.tr.begin(name, ps.root)
	fn(id)
	ps.tr.end(id)
}

// undisturbed plays a phase, and again while the host stole more than
// stealLimit of the CPU time from it and the pass has replays left. The
// tuples of a discarded window still count for correctness.
func (ps *pass) undisturbed(play func() *phaseStats) *phaseStats {
	for {
		st := play()
		logPhase(ps.logf, st)
		if st.steal <= stealLimit || ps.replays == replayBudget {
			return st
		}
		ps.replays++
		ps.logf("the host stole %.1f%% of the CPU time from %s; waiting for it to settle and playing the phase again (%d of %d)",
			100*st.steal, phaseNames[st.id], ps.replays, replayBudget)
		ps.awaitCalm()
	}
}

// settle stops a bed and adds its correctness verdict to the result.
func (ps *pass) settle(b *bed) {
	attempted, failed, fails := b.verdict()
	ps.res.attempted += attempted
	ps.res.failed += failed
	ps.res.fails = append(ps.res.fails, fails.lines()...)
}

// mainPhases builds the cluster (several times over, for the set-up
// median; the last one stays) and plays low, mid and sat on it.
func (ps *pass) mainPhases() (*measured, error) {
	p, w := ps.p, ps.w
	ms := &measured{}
	var b *bed
	var err error
	ps.spanned("setup", func(int) {
		for i := 0; i < p.setups && err == nil; i++ {
			if b != nil {
				b.stop()
			}
			if b, err = newBed(w, ps.g, core.ModeTyphoon, -1, ps.o.traced); err == nil {
				ms.setups = append(ms.setups, b.setup.Seconds())
			}
		}
	})
	if err != nil {
		return nil, err
	}
	ms.submitMs = b.submit.Seconds() * 1e3
	ps.logf("set-up ×%d: median %.4f s (submit %.1f ms)", len(ms.setups), median(ms.setups), ms.submitMs)
	if ps.o.injectLoss {
		b.r.emitted.Add(1)
	}
	ps.spanned("phase:low", func(int) {
		ms.low = ps.undisturbed(func() *phaseStats { return b.openPhase(phaseLow, w.lowRate, p.warm, p.low, phaseOpts{}) })
	})
	ps.spanned("phase:mid", func(int) {
		ms.mid = ps.undisturbed(func() *phaseStats {
			return b.openPhase(phaseMid, w.midRate, p.warm, p.mid, phaseOpts{sampleMask: 7, rescales: rescalesIn(w, p.mid)})
		})
	})
	ps.spanned("phase:sat", func(int) {
		ms.sat = ps.undisturbed(func() *phaseStats { return b.closedPhase(phaseSat, p.warm, p.sat, phaseOpts{sampleMask: 7}) })
	})
	if ms.sat.undrained != 0 {
		// The checker charges the tuples themselves; this words the phase-level view.
		ps.logf("sat: %d deliveries missing after drain (emitted × sinks ≠ delivered)", ms.sat.undrained)
	}
	ps.settle(b)
	return ms, nil
}

// rescaleMedians summarises a phase's rescale reports.
func rescaleMedians(st *phaseStats) (pauseMs, drainMs, keys, bytes float64) {
	var p, d, k, by []float64
	for _, r := range st.rescales {
		p = append(p, r.Pause.Seconds()*1e3)
		d = append(d, r.Drain.Seconds()*1e3)
		k = append(k, float64(r.KeysMigrated))
		by = append(by, float64(r.StateBytes))
	}
	return median(p), median(d), median(k), median(by)
}

// endToEnd fills in the untraced pass's metrics.
func (ps *pass) endToEnd(ms *measured) {
	m := ps.res.metrics
	m["setup_s"] = median(ms.setups)
	m["sat_tuples_per_s"] = ms.sat.tuplesPerSec()
	m["cpu_us_per_tuple_sat"] = ms.sat.cpuUsPerTuple()
	m["cpu_us_per_tuple_mid"] = ms.mid.cpuUsPerTuple()
	m["lat_p50_ms_mid"] = quantile(ms.mid.lat, 0.50)
	m["lat_p50_ms_low"] = quantile(ms.low.lat, 0.50)
	m["lat_p95_ms_low"] = ms.low.tail(0.95)
	if ps.w.rescale {
		m["rescale_pause_ms"], _, _, _ = rescaleMedians(ms.mid)
	}
	m["failed_ratio"] = float64(ps.res.failed) / float64(ps.res.attempted)
}

// layerCounters fills in the per-layer metrics that are differences of
// the layers' counters between the two ends of a window.
func (ps *pass) layerCounters(ms *measured) {
	m, low, mid, sat := ps.res.metrics, ms.low, ms.mid, ms.sat
	d := func(st *phaseStats, f func(*layerSnap) float64) float64 { return f(st.after) - f(st.before) }
	tpf := func(st *phaseStats) float64 { return ratio(sent(st.before, st.after)) }
	m["packet.tuples_per_frame_low"] = tpf(low)
	m["packet.tuples_per_frame_mid"] = tpf(mid)
	m["packet.tuples_per_frame_sat"] = tpf(sat)
	m["ring.drops_sat"] = d(sat, func(s *layerSnap) float64 { return float64(s.ringDrops + s.trDropped) })
	hits := d(mid, func(s *layerSnap) float64 { return float64(s.sw.MicroflowHits) })
	misses := d(mid, func(s *layerSnap) float64 { return float64(s.sw.MicroflowMisses) })
	m["switchfabric.microflow_hit_ratio_mid"] = ratio(hits, hits+misses)
	m["switchfabric.upcalls_mid"] = d(mid, func(s *layerSnap) float64 { return float64(s.sw.Upcalls) })
	m["switchfabric.drops_sat"] = d(sat, func(s *layerSnap) float64 { return float64(s.sw.Dropped) })
	m["switchfabric.replicated_mid"] = d(mid, func(s *layerSnap) float64 { return float64(s.sw.Replicated) })
	m["worker.busy_share_mid"] = busyShare(mid.before, mid.after, mid.wall)
	m["worker.inqueue_p95_mid"] = quantile(sortedCopy(mid.inqueue), 0.95)
	m["worker.idle_cores_low"] = low.cpu.Seconds() / low.wall.Seconds()
	m["worker.gen_late_p99_ms_mid"] = quantile(mid.genLate, 0.99)
	m["core.tunnel_frames_mid"] = d(mid, func(s *layerSnap) float64 { return float64(s.tunFrames) })
	m["core.tunnel_bytes_mid"] = d(mid, func(s *layerSnap) float64 { return float64(s.tunBytes) })
	m["core.submit_ms"] = ms.submitMs
	m["core.allocs_per_tuple_mid"] = ratio(d(mid, func(s *layerSnap) float64 { return float64(s.mallocs) }), float64(mid.delivered))
	m["core.gc_pause_ms_mid"] = d(mid, func(s *layerSnap) float64 { return s.gcPause.Seconds() * 1e3 })
	m["core.late_ratio_mid"] = mid.lateRatio()
	m["core.lat_p99_ms_mid"] = quantile(mid.lat, 0.99)
	m["core.lat_p99_ms_low"] = low.tail(0.99)
	m["core.lat_p999_ms_low"] = quantile(low.lat, 0.999)
	// Transport-level tuple sends per data-path tuple send, taken at sat
	// where no rescale swaps workers: 1 without acking; INIT, ACK and
	// COMPLETE tuples push it to 4 on an acked chain.
	hops := 1.0
	if ps.w.keyed {
		hops = 2
	}
	satSends, _ := sent(sat.before, sat.after)
	m["ack.frames_per_tuple"] = ratio(satSends, float64(sat.emitted)*hops)
	m["controller.rules_installed"] = float64(mid.after.rules)
	m["controller.rescale_pause_ms"], m["controller.rescale_drain_ms"],
		m["controller.rescale_keys_migrated"], m["controller.rescale_state_bytes"] = rescaleMedians(mid)
}

// tracedMid repeats the mid phase on a cluster with default trace
// sampling: the difference in CPU per delivery is what the
// instrumentation costs.
func (ps *pass) tracedMid(mid *phaseStats) error {
	var st *phaseStats
	var err error
	ps.spanned("phase:traced-mid", func(int) {
		var b *bed
		if b, err = newBed(ps.w, ps.g, core.ModeTyphoon, 0, false); err != nil {
			return
		}
		st = ps.undisturbed(func() *phaseStats {
			return b.openPhase(phaseTraced, ps.w.midRate, ps.p.warm, ps.p.traced, phaseOpts{sampleMask: 7})
		})
		ps.settle(b)
	})
	if err != nil {
		return err
	}
	ps.res.metrics["observe.trace_overhead_pct"] = 100 * (st.cpuUsPerTuple() - mid.cpuUsPerTuple()) / mid.cpuUsPerTuple()
	return nil
}

// stormSat is the paper's Fig 8a/9 ratio: the same closed loop on the
// Storm baseline. Reported, never gated.
func (ps *pass) stormSat(sat *phaseStats) error {
	m := ps.res.metrics
	m["storm.sat_tuples_per_s"], m["storm.speedup"] = 0, 0
	if !ps.w.storm {
		return nil
	}
	var st *phaseStats
	var err error
	ps.spanned("phase:storm-sat", func(int) {
		var b *bed
		if b, err = newBed(ps.w, ps.g, core.ModeStorm, -1, false); err != nil {
			return
		}
		st = ps.undisturbed(func() *phaseStats {
			return b.closedPhase(phaseSat, ps.p.warm, ps.p.storm, phaseOpts{sampleMask: 7})
		})
		ps.settle(b)
	})
	if err != nil {
		return err
	}
	m["storm.sat_tuples_per_s"] = st.tuplesPerSec()
	m["storm.speedup"] = ratio(sat.tuplesPerSec(), st.tuplesPerSec())
	return nil
}

// checkFinite rejects a result holding a value JSON cannot carry.
func (r *result) checkFinite() error {
	for name, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return nil
}

func logPhase(logf func(string, ...any), s *phaseStats) {
	logf("%-10s %.2f s: %d emitted, %d delivered (%d undrained); median of %d slices %.0f deliveries/s, %.3f µs CPU/delivery (whole window %.0f, %.3f); latency n=%d p50 %.3f p90 %.3f p95 %.3f p99 %.3f (chunk medians: p95 %.3f p99 %.3f) max %.3f ms, %.4f%% beyond %d ms; generator late p99 %.3f ms; host steal %.2f%%",
		phaseNames[s.id], s.wall.Seconds(), s.emitted, s.delivered, s.undrained, len(s.slices), s.tuplesPerSec(), s.cpuUsPerTuple(),
		s.wholeTuplesPerSec(), s.wholeCPUUsPerTuple(),
		len(s.lat), quantile(s.lat, 0.5), quantile(s.lat, 0.9), quantile(s.lat, 0.95), quantile(s.lat, 0.99), s.tail(0.95), s.tail(0.99), quantile(s.lat, 1), 100*s.lateRatio(), lateLimitMs, quantile(s.genLate, 0.99), 100*s.steal)
	for _, r := range s.rescales {
		logf("  rescale %d→%d: pause %.2f ms (drain %.2f ms), %d keys, %d bytes", r.From, r.To,
			r.Pause.Seconds()*1e3, r.Drain.Seconds()*1e3, r.KeysMigrated, r.StateBytes)
	}
}
