// Package chaos is Typhoon's deterministic fault-injection subsystem: a
// single place to break every layer of the emulation — host-to-host tunnel
// links, switch ports and flow tables, workers, and the SDN controller —
// so the paper's recovery claims (§4 fault detection via PortStatus, §3.5
// stable updates) become repeatable, metric-asserted tests instead of
// by-hand experiments.
//
// The subsystem has four parts:
//
//   - Netem: a per-link impairment table (partition, drop rate, latency,
//     jitter) the tunnel fabric consults on every egress frame. Random
//     decisions come from a single seeded generator, so a fixed seed
//     reproduces the exact same loss pattern.
//
//   - Spec: one declarative, JSON-encodable fault (its Kind selects the
//     layer), validated before application. Specs are what the HTTP
//     endpoint and `typhoon-ctl chaos` submit.
//
//   - Plan: an ordered, clock-driven schedule of Specs plus the seed,
//     for scripted experiments (typhoon.Config.Chaos).
//
//   - Engine: applies Specs against a Target (the running cluster),
//     schedules Plan events and automatic reversals (heal after a
//     partition window, restore after a controller outage), and stamps
//     every injection into the observe registry so recovery SLOs are
//     assertable from metrics alone.
package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Impairment describes the quality of one directed host-to-host link.
// The zero value is a perfect link.
type Impairment struct {
	// Partitioned drops every frame on the link.
	Partitioned bool
	// DropRate drops this fraction of frames uniformly at random [0,1].
	DropRate float64
	// Latency delays every frame by this much.
	Latency time.Duration
	// Jitter adds a uniformly random extra delay in [0, Jitter).
	Jitter time.Duration
}

func (im Impairment) zero() bool {
	return !im.Partitioned && im.DropRate == 0 && im.Latency == 0 && im.Jitter == 0
}

type linkKey struct{ from, to string }

// Netem is the per-link impairment table consulted by the tunnel fabric.
// All methods are safe for concurrent use; a nil *Netem is a valid,
// always-perfect table so data-path call sites need no guard.
type Netem struct {
	mu    sync.Mutex
	rng   *rand.Rand
	links map[linkKey]Impairment

	dropped atomic.Uint64
	delayed atomic.Uint64
}

// NewNetem builds an impairment table whose random decisions (drop rate,
// jitter) are driven by the given seed.
func NewNetem(seed int64) *Netem {
	return &Netem{
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[linkKey]Impairment),
	}
}

// SetLink sets the impairment on the a→b and b→a links.
func (n *Netem) SetLink(a, b string, im Impairment) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setDir(a, b, im)
	n.setDir(b, a, im)
}

// SetLinkDir sets the impairment on the directed from→to link only.
func (n *Netem) SetLinkDir(from, to string, im Impairment) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setDir(from, to, im)
}

func (n *Netem) setDir(from, to string, im Impairment) {
	k := linkKey{from, to}
	if im.zero() {
		delete(n.links, k)
		return
	}
	n.links[k] = im
}

// Partition cuts the a↔b link in both directions.
func (n *Netem) Partition(a, b string) {
	n.SetLink(a, b, Impairment{Partitioned: true})
}

// Heal restores the a↔b link to perfect in both directions.
func (n *Netem) Heal(a, b string) { n.SetLink(a, b, Impairment{}) }

// HealAll restores every link.
func (n *Netem) HealAll() {
	if n == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links = make(map[linkKey]Impairment)
}

// Impair decides the fate of one frame on the from→to link: drop reports
// that the frame must be discarded, otherwise delay is how long to hold it
// before transmission. A nil receiver always returns a perfect link.
func (n *Netem) Impair(from, to string) (delay time.Duration, drop bool) {
	if n == nil {
		return 0, false
	}
	n.mu.Lock()
	im, ok := n.links[linkKey{from, to}]
	if !ok {
		n.mu.Unlock()
		return 0, false
	}
	if im.Partitioned || (im.DropRate > 0 && n.rng.Float64() < im.DropRate) {
		n.mu.Unlock()
		n.dropped.Add(1)
		return 0, true
	}
	delay = im.Latency
	if im.Jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(im.Jitter)))
	}
	n.mu.Unlock()
	if delay > 0 {
		n.delayed.Add(1)
	}
	return delay, false
}

// Dropped counts frames discarded by impairments since creation.
func (n *Netem) Dropped() uint64 {
	if n == nil {
		return 0
	}
	return n.dropped.Load()
}

// Delayed counts frames held back by latency/jitter since creation.
func (n *Netem) Delayed() uint64 {
	if n == nil {
		return 0
	}
	return n.delayed.Load()
}

// ImpairedLinks reports how many directed links currently carry a
// non-zero impairment.
func (n *Netem) ImpairedLinks() int {
	if n == nil {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.links)
}
