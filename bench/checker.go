package main

import "fmt"

// failKind classifies one failed operation. Every failed tuple lands in
// exactly one kind.
type failKind int

const (
	failLost failKind = iota
	failDuplicate
	failReorder
	failWrongCount
	failCorrupt
	failRescale
	numFailKinds
)

var failNames = [numFailKinds]string{"lost", "duplicate", "reorder", "wrong-count", "corrupt", "rescale"}

func (k failKind) String() string { return failNames[k] }

// maxMissing bounds the skipped indices one stream remembers. Past it a
// gap is charged as lost at once; a late arrival from such a gap then
// reads as a duplicate, which is still a failure.
const maxMissing = 1 << 16

// orderTrack follows one stream whose indices must arrive 0,1,2,… It
// tells a late arrival (reorder) from a second arrival (duplicate) by
// remembering the indices it skipped.
type orderTrack struct {
	next    int64
	missing map[int64]struct{}
	lost    int64 // skipped beyond maxMissing
}

// observe classifies the arrival of idx; ok means in order.
func (o *orderTrack) observe(idx int64) (failKind, bool) {
	switch {
	case idx == o.next:
		o.next++
		return 0, true
	case idx > o.next:
		for i := o.next; i < idx; i++ {
			if len(o.missing) >= maxMissing {
				o.lost += idx - i
				break
			}
			if o.missing == nil {
				o.missing = make(map[int64]struct{})
			}
			o.missing[i] = struct{}{}
		}
		o.next = idx + 1
		return 0, true
	default:
		if _, skipped := o.missing[idx]; skipped {
			delete(o.missing, idx)
			return failReorder, false
		}
		return failDuplicate, false
	}
}

// unseen counts the indices below expected that never arrived.
func (o *orderTrack) unseen(expected int64) int64 {
	n := int64(len(o.missing)) + o.lost
	if o.next < expected {
		n += expected - o.next
	}
	return n
}

// failures accumulates failed operations by kind, keeping the first
// message of each kind so a report can name a concrete tuple.
type failures struct {
	count [numFailKinds]int64
	first [numFailKinds]string
}

func (f *failures) add(k failKind, n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	if f.count[k] == 0 {
		f.first[k] = fmt.Sprintf(format, args...)
	}
	f.count[k] += n
}

func (f *failures) merge(o *failures) {
	for k := range f.count {
		if f.count[k] == 0 {
			f.first[k] = o.first[k]
		}
		f.count[k] += o.count[k]
	}
}

func (f *failures) total() int64 {
	var n int64
	for _, c := range f.count {
		n += c
	}
	return n
}

// lines renders one line per failing kind.
func (f *failures) lines() []string {
	var out []string
	for k, c := range f.count {
		if c > 0 {
			out = append(out, fmt.Sprintf("%s ×%d, first: %s", failKind(k), c, f.first[k]))
		}
	}
	return out
}

// checker verifies one sink's deliveries against the generator. An
// unkeyed sink must see the source's sequence in order; a keyed sink sees
// several counter instances interleaved, so order is per key, and each
// tuple's running count must equal its per-key sequence plus one.
type checker struct {
	name  string
	gen   *generator
	keyed bool
	src   orderTrack
	keys  [numKeys]orderTrack
	fails failures
}

func newChecker(name string, g *generator, keyed bool) *checker {
	return &checker{name: name, gen: g, keyed: keyed}
}

// observe checks one unkeyed delivery.
func (c *checker) observe(seq int64) {
	if k, ok := c.src.observe(seq); !ok {
		c.fails.add(k, 1, "%s: seq %d (expected %d)", c.name, seq, c.src.next)
	}
}

// observeKeyed checks one keyed delivery: key is what the tuple carries,
// keySeq its per-key sequence from the source, count the counter's output.
func (c *checker) observeKeyed(seq int64, key string, keySeq, count int64) {
	ki := c.gen.keyIndex(seq)
	if key != c.gen.keys[ki] {
		c.fails.add(failCorrupt, 1, "%s: seq %d carries key %q, generator drew %q", c.name, seq, key, c.gen.keys[ki])
		c.keys[ki].observe(keySeq) // it did arrive: charged once, as corrupt
		return
	}
	if k, ok := c.keys[ki].observe(keySeq); !ok {
		c.fails.add(k, 1, "%s: key %s index %d (expected %d)", c.name, key, keySeq, c.keys[ki].next)
		return
	}
	if count != keySeq+1 {
		c.fails.add(failWrongCount, 1, "%s: key %s index %d carries running count %d, want %d", c.name, key, keySeq, count, keySeq+1)
	}
}

// finish charges every tuple of the first emitted that never arrived and,
// for a keyed sink, compares the final per-key counts with the
// generator's reference totals. It returns the accumulated failures.
func (c *checker) finish(emitted int64) *failures {
	if !c.keyed {
		c.fails.add(failLost, c.src.unseen(emitted), "%s: %d of %d never arrived (next expected seq %d)",
			c.name, c.src.unseen(emitted), emitted, c.src.next)
		return &c.fails
	}
	want := c.gen.keyTotals(emitted)
	for ki := range c.keys {
		if n := c.keys[ki].unseen(want[ki]); n > 0 {
			c.fails.add(failLost, n, "%s: key %s ends at count %d, reference %d",
				c.name, c.gen.keys[ki], c.keys[ki].next, want[ki])
		}
	}
	return &c.fails
}
