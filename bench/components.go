package main

import (
	"encoding/binary"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// Logic names the benchmark registers. The components are the
// benchmark's own: the product sees only the tuples they emit.
const (
	logicSource  = "bench/source"
	logicCounter = "bench/counter"
	logicSink    = "bench/sink"
)

// Tuple layout. The source emits fields 0–2, plus 3–4 on the keyed
// workload; the counter appends field 5.
const (
	fSeq     = 0 // global sequence number
	fDue     = 1 // unix ns the tuple was due to be sent
	fPayload = 2 // seeded bytes, first 8 stamped with the sequence
	fKey     = 3 // routing key (keyed workload)
	fKeySeq  = 4 // per-key sequence number from the source
	fCount   = 5 // the counter's running count for the key
)

type phaseMode int32

const (
	modeIdle   phaseMode = iota
	modeOpen             // tuple i is due at epoch + i/rate
	modeClosed           // emit while emitted − min(delivered) < window
)

// Phase identifiers index the latency sample sets.
const (
	phaseSetup = iota
	phaseLow
	phaseMid
	phaseSat
	phaseTraced // the traced pass's repeat of mid
	numPhases
)

var phaseNames = [numPhases]string{"setup", "low", "mid", "sat", "traced-mid"}

// burstCap bounds the tuples one Next call emits, so the worker loop gets
// back to its flush and control duties between bursts.
const burstCap = 256

// phase is one immutable load instruction. The driver publishes a new one
// through run.phase; the source and the sinks read it per call.
type phase struct {
	gen  uint64 // increases with every published phase
	id   int
	mode phaseMode

	epoch int64   // open: unix ns of tuple 0
	rate  float64 // open: tuples per second
	base  int64   // open: sequence number of tuple 0
	limit int64   // open: tuples to emit

	window int64 // closed: outstanding tuples allowed

	// Sinks time the tuples with seq&sampleMask == 0 and keep the sample
	// when the tuple was due at or after recordFrom (warm-up excluded).
	sampleMask int64
	recordFrom int64
}

// run is the state one cluster's components share with the driver.
type run struct {
	spec *workload
	gen  *generator

	phase   atomic.Pointer[phase]
	phaseNo uint64 // driver-owned generation counter

	// Source side. emitted is the next sequence number; seenGen is the
	// generation of the phase the source last acted on, which is how the
	// driver knows an ended phase emits nothing more.
	emitted atomic.Int64
	seenGen atomic.Uint64
	keySeq  [numKeys]int64       // source-owned
	genLate [numPhases][]float64 // emit − due in ms, sampled; source-owned until its phase is acknowledged over

	sinks []*sinkState
}

// sinkState is one sink instance's state. It outlives the component so a
// restarted worker would resume, and so the driver can read it.
type sinkState struct {
	delivered atomic.Int64
	chk       *checker // sink goroutine only, until the cluster has stopped

	mu      sync.Mutex
	samples [numPhases][]float64 // latency in ms
	fails   failures             // what only the sampled tuples are checked for
}

func newRun(spec *workload, g *generator) *run {
	r := &run{spec: spec, gen: g}
	for i := 0; i < spec.sinks; i++ {
		r.sinks = append(r.sinks, &sinkState{chk: newChecker("sink "+strconv.Itoa(i), g, spec.keyed)})
	}
	r.phase.Store(&phase{mode: modeIdle})
	return r
}

// register installs the run's component factories. Re-registering
// replaces the previous run's, so one process can build clusters in turn.
func (r *run) register() {
	worker.RegisterLogic(logicSource, func() worker.Component { return &source{run: r} })
	worker.RegisterLogic(logicCounter, func() worker.Component { return &counter{} })
	worker.RegisterLogic(logicSink, func() worker.Component { return &sink{run: r} })
}

// publish makes p the current phase.
func (r *run) publish(p phase) *phase {
	r.phaseNo++
	p.gen = r.phaseNo
	r.phase.Store(&p)
	return &p
}

// minDelivered is the slowest sink's delivery count.
func (r *run) minDelivered() int64 {
	m := r.sinks[0].delivered.Load()
	for _, s := range r.sinks[1:] {
		if d := s.delivered.Load(); d < m {
			m = d
		}
	}
	return m
}

// totalDelivered sums deliveries over the sinks.
func (r *run) totalDelivered() int64 {
	var n int64
	for _, s := range r.sinks {
		n += s.delivered.Load()
	}
	return n
}

// source is the benchmark's paced spout: open-loop phases emit each tuple
// when its schedule says so and stamp it with that due time; the
// closed-loop phase keeps a bounded window outstanding.
type source struct {
	run  *run
	next int64
	buf  []byte
	vals []tuple.Value
}

func (s *source) Open(*worker.Context) error {
	s.next = s.run.emitted.Load()
	s.buf = make([]byte, len(s.run.gen.payload))
	s.vals = make([]tuple.Value, 0, 5)
	return nil
}

func (s *source) Close(*worker.Context) error { return nil }

func (s *source) Next(ctx *worker.Context) (bool, error) {
	r := s.run
	p := r.phase.Load()
	r.seenGen.Store(p.gen)
	s.next = r.emitted.Load() // the driver may move it between phases
	n := 0
	switch p.mode {
	case modeOpen:
		now := time.Now().UnixNano()
		for i := s.next - p.base; i < p.limit && n < burstCap; i++ {
			due := p.epoch + dueOffset(i, p.rate)
			if due > now {
				break
			}
			s.emit(ctx, p, due, now)
			n++
		}
	case modeClosed:
		room := p.window - (s.next - r.minDelivered())
		if room > burstCap {
			room = burstCap
		}
		if room > 0 {
			now := time.Now().UnixNano()
			for ; n < int(room); n++ {
				s.emit(ctx, p, now, now)
			}
		}
	}
	return n > 0, nil
}

func (s *source) emit(ctx *worker.Context, p *phase, due, now int64) {
	r := s.run
	seq := s.next
	if seq&p.sampleMask == 0 && due >= p.recordFrom {
		r.genLate[p.id] = append(r.genLate[p.id], float64(now-due)/1e6)
	}
	buf, vals := s.buf, s.vals[:0]
	if r.spec.ackers > 0 {
		// The framework keeps an acked tuple's values until its tree
		// completes, so they cannot be reused.
		buf = make([]byte, len(s.buf))
		vals = make([]tuple.Value, 0, 3)
	}
	r.gen.fill(buf, seq)
	vals = append(vals, tuple.Int(seq), tuple.Int(due), tuple.Bytes(buf))
	if r.spec.keyed {
		ki := r.gen.keyIndex(seq)
		vals = append(vals, tuple.String(r.gen.keys[ki]), tuple.Int(r.keySeq[ki]))
		r.keySeq[ki]++
	}
	ctx.Emit(vals...)
	s.next++
	r.emitted.Store(s.next)
}

// counter is the keyed workload's stateful stage: a running count per
// key, migrated by the rescale protocol, forwarded so the sink can check
// state integrity.
type counter struct {
	counts map[string]int64
	vals   []tuple.Value
}

func (c *counter) Open(*worker.Context) error {
	c.counts = make(map[string]int64)
	c.vals = make([]tuple.Value, 0, 6)
	return nil
}

func (c *counter) Close(*worker.Context) error { return nil }

func (c *counter) Execute(ctx *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	key := in.Field(fKey).AsString()
	n, known := c.counts[key]
	if !known {
		key = strings.Clone(key) // the decoded string aliases receive storage
	}
	n++
	c.counts[key] = n
	c.vals = append(c.vals[:0], in.Values[:fCount]...)
	c.vals = append(c.vals, tuple.Int(n))
	ctx.Emit(c.vals...)
	return nil
}

func (c *counter) SnapshotState(_ *worker.Context, kr worker.KeyRange) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for k, n := range c.counts {
		if kr.Contains(worker.PartitionOfKey(k)) {
			out[k] = appendInt(nil, n)
		}
	}
	return out, nil
}

func (c *counter) RestoreState(_ *worker.Context, state map[string][]byte) error {
	counts := make(map[string]int64, len(state))
	for k, blob := range state {
		counts[k] = parseInt(blob)
	}
	c.counts = counts
	return nil
}

// appendInt and parseInt are the counter's state encoding: 8 bytes,
// little-endian. A blob of any other length reads as 0, which the sink's
// running-count check then reports.
func appendInt(dst []byte, n int64) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(n)) }

func parseInt(b []byte) int64 {
	if len(b) != 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// sink terminates every pipeline: it checks each delivery against the
// generator and times the sampled ones from their due time.
type sink struct {
	run *run
	st  *sinkState
	n   int64
}

func (s *sink) Open(ctx *worker.Context) error {
	s.st = s.run.sinks[ctx.Index()]
	s.n = s.st.delivered.Load()
	return nil
}

func (s *sink) Close(*worker.Context) error { return nil }

func (s *sink) Execute(_ *worker.Context, in tuple.Tuple) error {
	if in.Stream.IsSignal() {
		return nil
	}
	r, st := s.run, s.st
	seq := in.Field(fSeq).AsInt()
	if r.spec.keyed {
		st.chk.observeKeyed(seq, in.Field(fKey).AsString(), in.Field(fKeySeq).AsInt(), in.Field(fCount).AsInt())
	} else {
		st.chk.observe(seq)
	}
	p := r.phase.Load()
	if seq&p.sampleMask == 0 {
		now := time.Now().UnixNano()
		due := in.Field(fDue).AsInt()
		okPayload := r.gen.payloadOK(in.Field(fPayload).AsBytes(), seq)
		st.mu.Lock()
		if !okPayload {
			st.fails.add(failCorrupt, 1, "%s: seq %d payload differs from the generator's", st.chk.name, seq)
		}
		if due >= p.recordFrom {
			st.samples[p.id] = append(st.samples[p.id], float64(now-due)/1e6)
		}
		st.mu.Unlock()
	}
	s.n++
	st.delivered.Store(s.n)
	return nil
}
