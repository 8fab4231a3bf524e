package switchfabric

import (
	"time"

	"typhoon/internal/ring"
)

// QueueClass configures one egress class of the per-port weighted fair
// queueing discipline. Classes are indexed by position: a rule's set_queue
// action selects the class its frames are enqueued on.
type QueueClass struct {
	Name string `json:"name"`
	// Weight is the class's DRR share; larger weights drain proportionally
	// more bytes per scheduling round. Values <= 0 count as 1.
	Weight int `json:"weight"`
}

// drrQuantumUnit is the byte credit one weight unit earns per DRR round.
// Batch-encoded frames can exceed it; such a class carries a negative
// deficit and earns it back over subsequent rounds (readBatch runs extra
// rounds back-to-back when a sweep pops nothing, so oversized frames delay
// a class but never starve it).
const drrQuantumUnit = 2048

// qdisc is a per-port egress queueing discipline: one ring per class,
// drained by byte-accounted deficit round-robin. The enqueue side (switch
// pumps) is concurrency-safe; the dequeue side carries the scheduler state
// (cursor, deficits) unlocked and therefore requires the single
// consumer every port already has (its attached device or tunnel pump).
type qdisc struct {
	classes []qclass
	notify  chan struct{} // capacity 1; kicked on every enqueue

	// Consumer-side state.
	cur    int
	resume bool // cur's visit was cut off by max with deficit left
}

type qclass struct {
	name    string
	ring    *ring.Ring
	quantum int
	deficit int
}

func newQdisc(classes []QueueClass, capacity int) *qdisc {
	q := &qdisc{
		classes: make([]qclass, len(classes)),
		notify:  make(chan struct{}, 1),
	}
	for i, c := range classes {
		w := c.Weight
		if w <= 0 {
			w = 1
		}
		q.classes[i] = qclass{
			name:    c.Name,
			ring:    ring.New(capacity),
			quantum: w * drrQuantumUnit,
		}
	}
	return q
}

// enqueue offers a frame to one class without blocking; out-of-range
// classes clamp to the last (lowest-weight, best-effort) class. It reports
// false when the class ring is full.
func (q *qdisc) enqueue(class uint32, frame []byte) bool {
	if int(class) >= len(q.classes) {
		class = uint32(len(q.classes) - 1)
	}
	if !q.classes[class].ring.TryEnqueue(frame) {
		return false
	}
	select {
	case q.notify <- struct{}{}:
	default:
	}
	return true
}

// readBatch drains up to max frames by deficit round-robin, waiting up to
// wait for the first frame. Each backlogged class earns its quantum per
// round and spends it by frame bytes; unspent deficit carries over while
// the class stays backlogged and is forfeited when it drains, the classic
// DRR discipline. Returns ring.ErrClosed only when every class ring is
// closed and empty.
func (q *qdisc) readBatch(dst [][]byte, max int, wait time.Duration) ([][]byte, error) {
	if max <= 0 {
		max = pumpBatchSize
	}
	var deadline time.Time
	advance := func() {
		q.cur++
		if q.cur == len(q.classes) {
			q.cur = 0
		}
	}
	for {
		closedAll := true
		backlogged := false
		for range q.classes {
			c := &q.classes[q.cur]
			resumed := q.resume
			q.resume = false
			if c.ring.Len() == 0 {
				c.deficit = 0
				if !c.ring.Closed() {
					closedAll = false
				}
				advance()
				continue
			}
			closedAll = false
			backlogged = true
			// A visit interrupted by max resumes spending its carried
			// deficit; a fresh quantum per visit would let short reads
			// erode the weight ratio (the class earns per round but can
			// only spend up to max).
			if !resumed {
				c.deficit += c.quantum
			}
			for c.deficit > 0 && len(dst) < max {
				n := len(dst) // a pop that does not wait cannot fail
				if dst, _ = c.ring.DequeueBatch(dst, 1, 0); len(dst) == n {
					c.deficit = 0
					break
				}
				c.deficit -= len(dst[n])
			}
			if len(dst) >= max {
				if c.deficit > 0 && c.ring.Len() > 0 {
					q.resume = true // stay on cur, no fresh quantum
				} else {
					advance()
				}
				return dst, nil
			}
			advance()
		}
		if len(dst) > 0 {
			return dst, nil
		}
		if closedAll {
			return dst, ring.ErrClosed
		}
		if backlogged {
			// Work conservation: a backlogged class whose frames outsize
			// its quantum (batch-encoded frames can) pops nothing this
			// round and owes a negative deficit. With the link otherwise
			// idle, DRR rounds proceed at link speed — re-sweep so quanta
			// accrue immediately instead of once per timer wait, which
			// would stall the queue (and deadlock shutdown drains).
			continue
		}
		if wait <= 0 {
			return dst, nil
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(wait)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return dst, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-q.notify:
			timer.Stop()
		case <-timer.C:
			return dst, nil
		}
	}
}

// wake kicks the notify channel so a consumer blocked in readBatch
// re-sweeps and observes its closed class rings immediately.
func (q *qdisc) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// QueueStats is one per-class egress-queue row of a port snapshot.
type QueueStats struct {
	Class    string `json:"class"`
	Depth    int    `json:"depth"`
	Enqueued uint64 `json:"enqueued"`
	Dropped  uint64 `json:"dropped"`
}

// queueStats snapshots per-class counters.
func (q *qdisc) queueStats() []QueueStats {
	out := make([]QueueStats, len(q.classes))
	for i := range q.classes {
		st := q.classes[i].ring.Stats()
		out[i] = QueueStats{
			Class:    q.classes[i].name,
			Depth:    q.classes[i].ring.Len(),
			Enqueued: st.Enqueued,
			Dropped:  st.Dropped,
		}
	}
	return out
}
