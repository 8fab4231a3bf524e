package chaos

import (
	"fmt"
	"sync"
	"time"

	"typhoon/internal/metrics"
	"typhoon/internal/observe"
	"typhoon/internal/topology"
)

// Target is the narrow slice of a running cluster the engine injects
// faults into. internal/core implements it; keeping the interface here
// keeps the import direction core → chaos.
type Target interface {
	// Netem returns the cluster's link impairment table (nil when the
	// deployment has no tunnel fabric, e.g. the Storm baseline).
	Netem() *Netem
	// CrashWorker makes a running worker exit with an error, as if its
	// process died.
	CrashWorker(topo string, id topology.WorkerID) error
	// HangWorker stalls a worker's processing loop for d.
	HangWorker(topo string, id topology.WorkerID, d time.Duration) error
	// SlowWorker adds d of processing time per tuple (0 restores).
	SlowWorker(topo string, id topology.WorkerID, d time.Duration) error
	// DropWorkerPort removes a worker's switch port out from under it,
	// emitting the PortStatus event of §4.
	DropWorkerPort(topo string, id topology.WorkerID) error
	// WipeFlows clears a host switch's flow table, returning the number
	// of rules destroyed.
	WipeFlows(host string) (int, error)
	// BeginControllerOutage takes the SDN controller offline.
	BeginControllerOutage() error
	// EndControllerOutage brings the controller back and triggers
	// reconciliation.
	EndControllerOutage() error
	// SetPacketOutDelay delays every controller PACKET_OUT by d.
	SetPacketOutDelay(d time.Duration) error
	// KillController permanently stops one replicated controller
	// instance; its switches fail over to a surviving peer.
	KillController(id string) error
}

// Injection records one applied fault.
type Injection struct {
	At   time.Time `json:"at"`
	Spec Spec      `json:"spec"`
	// Detail carries kind-specific results ("wiped 12 rules").
	Detail string `json:"detail,omitempty"`
}

// Engine applies fault Specs against a Target, executes Plans, and
// accounts every injection in the observe registry:
//
//	typhoon_chaos_injections_total{kind=...}  applied faults by kind
//	typhoon_chaos_active_windows              open auto-reverting windows
//	typhoon_chaos_netem_dropped_frames_total  frames killed by impairments
//	typhoon_chaos_impaired_links              directed links impaired
type Engine struct {
	target Target
	reg    *observe.Registry

	mu       sync.Mutex
	counters map[Kind]*metrics.Counter
	log      []Injection
	windows  int

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// NewEngine builds an engine over a target, registering the chaos metric
// family into reg (may be nil for metric-less use in unit tests).
func NewEngine(target Target, reg *observe.Registry) *Engine {
	e := &Engine{
		target:   target,
		reg:      reg,
		counters: make(map[Kind]*metrics.Counter),
		stopCh:   make(chan struct{}),
	}
	if reg != nil {
		reg.CounterFunc("typhoon_chaos_netem_dropped_frames_total",
			"Tunnel frames discarded by chaos link impairments.",
			nil, func() uint64 { return target.Netem().Dropped() })
		reg.CounterFunc("typhoon_chaos_netem_delayed_frames_total",
			"Tunnel frames delayed by chaos link impairments.",
			nil, func() uint64 { return target.Netem().Delayed() })
		reg.GaugeFunc("typhoon_chaos_impaired_links",
			"Directed host links with an active chaos impairment.",
			nil, func() float64 { return float64(target.Netem().ImpairedLinks()) })
		reg.GaugeFunc("typhoon_chaos_active_windows",
			"Open auto-reverting fault windows (partitions, outages).",
			nil, func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				return float64(e.windows)
			})
	}
	return e
}

// Stop cancels pending plan events and auto-reversals. Already-applied
// faults are not reverted.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stopCh) })
	e.wg.Wait()
}

// Injections returns the applied-fault record, oldest first.
func (e *Engine) Injections() []Injection {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Injection{}, e.log...)
}

// Count reports how many faults of one kind were applied.
func (e *Engine) Count(k Kind) uint64 {
	e.mu.Lock()
	c := e.counters[k]
	e.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// Apply validates and injects one fault. Faults with a Duration that
// bounds a window (partition, controller outage) schedule their own
// reversal; Engine.Stop cancels pending reversals.
func (e *Engine) Apply(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	detail := ""
	switch s.Kind {
	case KindPartition:
		net := e.target.Netem()
		if net == nil {
			return fmt.Errorf("chaos: deployment has no tunnel fabric to partition")
		}
		net.Partition(s.Host, s.Peer)
		if s.Duration > 0 {
			e.after(s.Duration, func() {
				_ = e.Apply(Spec{Kind: KindHeal, Host: s.Host, Peer: s.Peer})
			})
		}
	case KindHeal:
		net := e.target.Netem()
		if net == nil {
			return fmt.Errorf("chaos: deployment has no tunnel fabric to heal")
		}
		if s.Host == "" {
			net.HealAll()
		} else {
			net.Heal(s.Host, s.Peer)
		}
	case KindNetem:
		net := e.target.Netem()
		if net == nil {
			return fmt.Errorf("chaos: deployment has no tunnel fabric to impair")
		}
		net.SetLink(s.Host, s.Peer, Impairment{
			DropRate: s.DropRate, Latency: s.Latency, Jitter: s.Jitter,
		})
	case KindPortDown:
		if err := e.target.DropWorkerPort(s.Topo, s.Worker); err != nil {
			return err
		}
	case KindWipeFlows:
		n, err := e.target.WipeFlows(s.Host)
		if err != nil {
			return err
		}
		detail = fmt.Sprintf("wiped %d rules", n)
	case KindWorkerCrash:
		if err := e.target.CrashWorker(s.Topo, s.Worker); err != nil {
			return err
		}
	case KindWorkerHang:
		if err := e.target.HangWorker(s.Topo, s.Worker, s.Duration); err != nil {
			return err
		}
	case KindWorkerSlow:
		if err := e.target.SlowWorker(s.Topo, s.Worker, s.Delay); err != nil {
			return err
		}
	case KindControllerOutage:
		if err := e.target.BeginControllerOutage(); err != nil {
			return err
		}
		if s.Duration > 0 {
			e.after(s.Duration, func() {
				_ = e.Apply(Spec{Kind: KindControllerRestore})
			})
		}
	case KindControllerRestore:
		if err := e.target.EndControllerOutage(); err != nil {
			return err
		}
	case KindPacketOutDelay:
		if err := e.target.SetPacketOutDelay(s.Delay); err != nil {
			return err
		}
	case KindControllerKill:
		if err := e.target.KillController(s.Controller); err != nil {
			return err
		}
	}
	e.record(s, detail)
	return nil
}

// RunPlan executes a plan's events on their schedule in a background
// goroutine. Call Stop to cancel outstanding events.
func (e *Engine) RunPlan(p Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	events := p.sorted()
	if len(events) == 0 {
		return nil
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		start := time.Now()
		for _, ev := range events {
			wait := ev.After - time.Since(start)
			if wait > 0 {
				select {
				case <-e.stopCh:
					return
				case <-time.After(wait):
				}
			}
			select {
			case <-e.stopCh:
				return
			default:
			}
			_ = e.Apply(ev.Spec)
		}
	}()
	return nil
}

// after schedules an automatic reversal, tracked as an open window.
func (e *Engine) after(d time.Duration, fn func()) {
	e.mu.Lock()
	e.windows++
	e.mu.Unlock()
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer func() {
			e.mu.Lock()
			e.windows--
			e.mu.Unlock()
		}()
		select {
		case <-e.stopCh:
		case <-time.After(d):
			fn()
		}
	}()
}

func (e *Engine) record(s Spec, detail string) {
	e.mu.Lock()
	c := e.counters[s.Kind]
	if c == nil && e.reg != nil {
		c = e.reg.Counter("typhoon_chaos_injections_total",
			"Faults injected by the chaos engine.",
			observe.Labels{"kind": string(s.Kind)})
		e.counters[s.Kind] = c
	} else if c == nil {
		c = &metrics.Counter{}
		e.counters[s.Kind] = c
	}
	e.log = append(e.log, Injection{At: time.Now(), Spec: s, Detail: detail})
	if len(e.log) > 1024 {
		e.log = e.log[len(e.log)-1024:]
	}
	e.mu.Unlock()
	c.Inc()
}
