package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"

	"typhoon/internal/controller"
	"typhoon/internal/core"
)

const (
	satWindow    = 8192 // outstanding tuples in the closed loop
	lateLimitMs  = 250  // an open-loop tuple later than this counts as late
	setupWindow  = 64   // closed-loop trickle that proves the pipeline is up
	drainTimeout = 3 * time.Second
	phaseLead    = 20 * time.Millisecond // how far ahead an open-loop epoch is armed
)

// sliceLen is how finely a window is cut. The headline rate and cost of a
// window are the medians over its slices, so a garbage collection, a
// rescale or a neighbour's burst moves a few slices and not the result.
const sliceLen = 250 * time.Millisecond

// latChunk is how many consecutive latency samples of one sink make one
// chunk for the tail metrics: 1 000 leaves fifty samples beyond a chunk's
// p95 and ten beyond its p99, and the median over chunks is what one stall
// cannot move.
const latChunk = 1000

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mark is the driver's view of the run at one instant.
type mark struct {
	at        time.Time
	cpu       time.Duration
	emitted   int64
	delivered int64  // summed over sinks
	stolen    uint64 // machine-wide steal and total CPU time, clock ticks
	jiffies   uint64
	layers    *layerSnap // traced pass only
}

// phaseStats is what one measured window produced.
type phaseStats struct {
	id        int
	wall      time.Duration
	cpu       time.Duration
	emitted   int64       // within the window
	delivered int64       // within the window, summed over sinks
	undrained int64       // deliveries still missing after the post-phase drain
	steal     float64     // share of the machine's CPU time stolen during the window
	slices    []slice     // the window cut into sliceLen pieces
	lat       []float64   // ms, ascending: sink arrival − due
	chunks    [][]float64 // each sink's samples in arrival order, latChunk at a time, each sorted
	genLate   []float64   // ms, ascending: emit − due
	before    *layerSnap
	after     *layerSnap
	inqueue   []float64 // traced pass: 10 ms samples of the deepest worker input queue
	rescales  []*controller.RescaleReport
}

// slice is one sliceLen piece of a measured window.
type slice struct {
	wall      time.Duration
	cpu       time.Duration
	delivered int64
}

// tail is the median over chunks of the chunk's q-quantile, or the whole
// window's when it holds less than one chunk.
func (s *phaseStats) tail(q float64) float64 {
	if len(s.chunks) == 0 {
		return quantile(s.lat, q)
	}
	v := make([]float64, len(s.chunks))
	for i, c := range s.chunks {
		v[i] = quantile(c, q)
	}
	return median(v)
}

// lateRatio is the share of the window's latency samples beyond
// lateLimitMs. A starved host produces these without the system losing
// anything, so they are reported, not counted as failed operations.
func (s *phaseStats) lateRatio() float64 {
	late := len(s.lat) - sort.SearchFloat64s(s.lat, lateLimitMs)
	return ratio(float64(late), float64(len(s.lat)))
}

// tuplesPerSec is the median slice's delivery rate.
func (s *phaseStats) tuplesPerSec() float64 {
	v := make([]float64, 0, len(s.slices))
	for _, sl := range s.slices {
		v = append(v, float64(sl.delivered)/sl.wall.Seconds())
	}
	return median(v)
}

// cpuUsPerTuple is the median slice's process CPU time per delivery.
func (s *phaseStats) cpuUsPerTuple() float64 {
	v := make([]float64, 0, len(s.slices))
	for _, sl := range s.slices {
		if sl.delivered > 0 {
			v = append(v, float64(sl.cpu.Nanoseconds())/1e3/float64(sl.delivered))
		}
	}
	if len(v) == 0 {
		return math.Inf(1)
	}
	return median(v)
}

// wholeTuplesPerSec and wholeCPUUsPerTuple are the same two numbers over
// the window as one piece.
func (s *phaseStats) wholeTuplesPerSec() float64 { return float64(s.delivered) / s.wall.Seconds() }

func (s *phaseStats) wholeCPUUsPerTuple() float64 {
	return ratio(float64(s.cpu.Nanoseconds())/1e3, float64(s.delivered))
}

// bed is one running cluster with the workload's topology on it.
type bed struct {
	w    *workload
	c    *core.Cluster
	r    *run
	deep bool // sample the layers' counters at window boundaries

	setup  time.Duration // NewCluster + Submit until every sink saw a tuple
	submit time.Duration // the Submit part

	fails    failures // driver-side failures (rescale errors)
	rescales int      // rescales attempted
}

// newBed builds a cluster, submits the workload and waits until every
// sink has seen its first tuple; that span is the set-up time.
func newBed(w *workload, g *generator, mode core.Mode, traceEvery int, deep bool) (*bed, error) {
	b := &bed{w: w, r: newRun(w, g), deep: deep}
	t0 := time.Now()
	b.r.register()
	b.r.publish(phase{id: phaseSetup, mode: modeClosed, window: setupWindow, recordFrom: math.MaxInt64})
	cfg := core.Config{Mode: mode, Hosts: w.hostNames(), TraceEvery: traceEvery}
	if w.ackers > 0 {
		cfg.AckTimeout = 2 * time.Second
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("new cluster: %w", err)
	}
	b.c = c
	l, err := w.topology()
	if err != nil {
		c.Stop()
		return nil, err
	}
	tSubmit := time.Now()
	if err := c.Submit(l, 30*time.Second); err != nil {
		c.Stop()
		return nil, fmt.Errorf("submit: %w", err)
	}
	b.submit = time.Since(tSubmit)
	if !waitFor(10*time.Second, func() bool { return b.r.minDelivered() >= 1 }) {
		c.Stop()
		return nil, fmt.Errorf("set-up: a sink saw no tuple within 10 s of Submit")
	}
	b.setup = time.Since(t0)
	b.quiesce()
	return b, nil
}

func (b *bed) stop() { b.c.Stop() }

// waitFor polls cond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// quiesce ends the current phase: the source acknowledges the idle phase
// (so it emits nothing more), then the sinks drain. It returns the
// deliveries still missing when the drain timed out.
func (b *bed) quiesce() int64 {
	r := b.r
	idle := r.publish(phase{mode: modeIdle, recordFrom: math.MaxInt64})
	waitFor(drainTimeout, func() bool { return r.seenGen.Load() == idle.gen })
	emitted := r.emitted.Load()
	waitFor(drainTimeout, func() bool { return r.minDelivered() >= emitted })
	var missing int64
	for _, s := range r.sinks {
		if d := s.delivered.Load(); d < emitted {
			missing += emitted - d
		}
	}
	return missing
}

func (b *bed) mark() mark {
	m := mark{at: time.Now(), cpu: cpuTime(), emitted: b.r.emitted.Load(), delivered: b.r.totalDelivered()}
	m.stolen, m.jiffies = cpuJiffies()
	if b.deep {
		m.layers = snapLayers(b.c, b.w)
	}
	return m
}

// reserve gives every sink room for n latency samples of phase id.
func (b *bed) reserve(id int, n int64) {
	for _, s := range b.r.sinks {
		s.mu.Lock()
		s.samples[id] = make([]float64, 0, n)
		s.mu.Unlock()
	}
	b.r.genLate[id] = make([]float64, 0, n)
}

// phaseOpts are the parts of a phase that differ between workloads.
type phaseOpts struct {
	sampleMask int64
	rescales   int // managed rescales spread over the window
}

// openPhase plays rate tuples/s on a fixed schedule for warm+dur and
// measures the last dur of it.
func (b *bed) openPhase(id int, rate float64, warm, dur time.Duration, o phaseOpts) *phaseStats {
	r := b.r
	limit := int64(rate * (warm + dur).Seconds())
	b.reserve(id, limit/(o.sampleMask+1)+1)
	epoch := time.Now().Add(phaseLead)
	p := r.publish(phase{
		id: id, mode: modeOpen,
		epoch: epoch.UnixNano(), rate: rate, base: r.emitted.Load(), limit: limit,
		sampleMask: o.sampleMask, recordFrom: epoch.Add(warm).UnixNano(),
	})
	st := b.window(id, epoch.Add(warm), dur, o)
	// A source running behind schedule still owes the rest of its tuples.
	waitFor(drainTimeout, func() bool { return r.emitted.Load() >= p.base+p.limit })
	b.finishPhase(st)
	return st
}

// closedPhase keeps satWindow tuples outstanding for warm+dur and
// measures the last dur of it.
func (b *bed) closedPhase(id int, warm, dur time.Duration, o phaseOpts) *phaseStats {
	b.reserve(id, 1<<20)
	start := time.Now()
	b.r.publish(phase{
		id: id, mode: modeClosed, window: satWindow,
		sampleMask: o.sampleMask, recordFrom: start.Add(warm).UnixNano(),
	})
	st := b.window(id, start.Add(warm), dur, o)
	b.finishPhase(st)
	return st
}

// window measures [from, from+dur): marks at both ends, and between them
// the traced pass's queue sampler and the workload's rescales.
func (b *bed) window(id int, from time.Time, dur time.Duration, o phaseOpts) *phaseStats {
	st := &phaseStats{id: id}
	sleepUntil(from)
	m0 := b.mark()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	if b.deep {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.inqueue = sampleInQueue(ctx, b.c, b.w)
		}()
	}
	if o.rescales > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.rescales = b.rescaleLoop(from, dur, o.rescales)
		}()
	}
	prev := m0
	for end := from.Add(dur); ; {
		next := prev.at.Add(sliceLen)
		if end.Sub(next) < sliceLen/2 {
			break // the last slice takes the remainder
		}
		sleepUntil(next)
		now := mark{at: time.Now(), cpu: cpuTime(), delivered: b.r.totalDelivered()}
		st.slices = append(st.slices, slice{now.at.Sub(prev.at), now.cpu - prev.cpu, now.delivered - prev.delivered})
		prev = now
	}
	sleepUntil(from.Add(dur))
	m1 := b.mark()
	st.slices = append(st.slices, slice{m1.at.Sub(prev.at), m1.cpu - prev.cpu, m1.delivered - prev.delivered})
	cancel()
	wg.Wait()
	st.wall = m1.at.Sub(m0.at)
	st.cpu = m1.cpu - m0.cpu
	st.emitted = m1.emitted - m0.emitted
	st.delivered = m1.delivered - m0.delivered
	st.steal = stealShare(m0.stolen, m0.jiffies, m1.stolen, m1.jiffies)
	st.before, st.after = m0.layers, m1.layers
	return st
}

// finishPhase drains the pipeline and collects the phase's samples.
func (b *bed) finishPhase(st *phaseStats) {
	st.undrained = b.quiesce()
	for _, s := range b.r.sinks {
		s.mu.Lock()
		got := s.samples[st.id]
		s.samples[st.id] = nil
		s.mu.Unlock()
		for ; len(got) >= latChunk; got = got[latChunk:] {
			chunk := sortedCopy(got[:latChunk])
			st.chunks = append(st.chunks, chunk)
			st.lat = append(st.lat, chunk...)
		}
		st.lat = append(st.lat, got...)
	}
	sort.Float64s(st.lat)
	st.genLate = b.r.genLate[st.id]
	b.r.genLate[st.id] = nil
	sort.Float64s(st.genLate)
}

// rescaleLoop flips the counter stage between its base parallelism and
// twice that, n times, evenly spaced over the window.
func (b *bed) rescaleLoop(from time.Time, dur time.Duration, n int) []*controller.RescaleReport {
	var out []*controller.RescaleReport
	for i := 0; i < n; i++ {
		sleepUntil(from.Add(time.Duration(float64(dur) * (float64(i) + 0.5) / float64(n))))
		to := b.w.counters * 2
		if i%2 == 1 {
			to = b.w.counters
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rep, err := b.c.Rescale(ctx, topoName, nodeCounter, to)
		cancel()
		b.rescales++
		if err != nil {
			b.fails.add(failRescale, 1, "rescale %d of %d to parallelism %d: %v", i+1, n, to, err)
			continue
		}
		out = append(out, rep)
	}
	return out
}

// verdict stops the cluster and settles the run's correctness: every
// tuple the source emitted must have reached every sink exactly once, in
// order, intact, on time, with the right running count.
func (b *bed) verdict() (attempted, failed int64, fails *failures) {
	b.stop()
	emitted := b.r.emitted.Load()
	all := &failures{}
	all.merge(&b.fails)
	for _, s := range b.r.sinks {
		all.merge(s.chk.finish(emitted))
		all.merge(&s.fails)
	}
	return emitted*int64(b.w.sinks) + int64(b.rescales), all.total(), all
}
