package ack_test

import (
	"cmp"
	"slices"
	"sync"
	"testing"
	"time"

	"typhoon/internal/ack"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

// capture records emissions from the acker. It copies their values, as the
// worker's transport does: the acker reuses its COMPLETE slices.
type capture struct {
	mu   sync.Mutex
	out  []tuple.Tuple
	last tuple.StreamID
}

func (c *capture) Emit(values ...tuple.Value) { c.EmitOn(tuple.DefaultStream, values...) }
func (c *capture) EmitOn(s tuple.StreamID, values ...tuple.Value) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = append(c.out, tuple.OnStream(s, slices.Clone(values)...))
	c.last = s
}

func (c *capture) completions() []tuple.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]tuple.Tuple(nil), c.out...)
}

func ackTuple(kind, root, xor, src int64) tuple.Tuple {
	return tuple.OnStream(tuple.AckStream,
		tuple.Int(kind), tuple.Int(root), tuple.Int(xor), tuple.Int(src))
}

// batch is one ack tuple carrying several [kind, root, xor, src] records.
func batch(records ...[4]int64) tuple.Tuple {
	var vals []tuple.Value
	for _, r := range records {
		vals = append(vals, tuple.Int(r[0]), tuple.Int(r[1]), tuple.Int(r[2]), tuple.Int(r[3]))
	}
	return tuple.OnStream(tuple.AckStream, vals...)
}

// TestAckerCompletesLinearChain feeds one record per tuple, the form the
// benchmark's acker probe uses.
func TestAckerCompletesLinearChain(t *testing.T) {
	a := ack.NewAcker()
	cap := &capture{}
	ctx := worker.NewContext(cap, 9, ack.NodeName, 0, nil)

	const root, e1, e2 = 100, 200, 300
	// Spout INIT: xor = root.
	a.Execute(ctx, ackTuple(0, root, root, 5))
	// Bolt1 consumed root-edge, emitted e1: ack root^e1.
	a.Execute(ctx, ackTuple(1, root, root^e1, 0))
	// Bolt2 consumed e1, emitted e2: ack e1^e2.
	a.Execute(ctx, ackTuple(1, root, e1^e2, 0))
	if got := cap.completions(); len(got) != 0 {
		t.Fatalf("premature completion: %v", got)
	}
	// Sink consumed e2, emitted nothing: ack e2 → tree complete.
	a.Execute(ctx, ackTuple(1, root, e2, 0))
	got := cap.completions()
	if len(got) != 1 {
		t.Fatalf("completions = %d", len(got))
	}
	if got[0].Stream != tuple.CompleteStream {
		t.Fatal("completion not on CompleteStream")
	}
	if got[0].Field(0).AsInt() != 5 || got[0].Field(1).AsInt() != root {
		t.Fatalf("completion = %v", got[0])
	}
	if a.Pending() != 0 {
		t.Fatal("pending not cleared")
	}
}

func TestAckerHandlesReordering(t *testing.T) {
	a := ack.NewAcker()
	cap := &capture{}
	ctx := worker.NewContext(cap, 9, ack.NodeName, 0, nil)
	const root, e1 = 111, 222
	// ACKs arrive before INIT.
	a.Execute(ctx, ackTuple(1, root, root^e1, 0))
	a.Execute(ctx, ackTuple(1, root, e1, 0))
	if len(cap.completions()) != 0 {
		t.Fatal("completed without INIT")
	}
	a.Execute(ctx, ackTuple(0, root, root, 7))
	if len(cap.completions()) != 1 {
		t.Fatal("did not complete after INIT")
	}
}

func TestAckerFanOutTree(t *testing.T) {
	a := ack.NewAcker()
	cap := &capture{}
	ctx := worker.NewContext(cap, 9, ack.NodeName, 0, nil)
	const root = 42
	children := []int64{1000, 2000, 3000}
	xor := int64(root)
	for _, c := range children {
		xor ^= c
	}
	a.Execute(ctx, ackTuple(0, root, root, 3))
	a.Execute(ctx, ackTuple(1, root, xor, 0)) // splitter: consumed root, emitted 3 children
	for i, c := range children {
		if len(cap.completions()) != 0 {
			t.Fatalf("completed before child %d acked", i)
		}
		a.Execute(ctx, ackTuple(1, root, c, 0)) // each sink consumes one child
	}
	if len(cap.completions()) != 1 {
		t.Fatalf("completions = %d", len(cap.completions()))
	}
}

func TestAckerIndependentTrees(t *testing.T) {
	a := ack.NewAcker()
	cap := &capture{}
	ctx := worker.NewContext(cap, 9, ack.NodeName, 0, nil)
	a.Execute(ctx, ackTuple(0, 1, 1, 5))
	a.Execute(ctx, ackTuple(0, 2, 2, 5))
	a.Execute(ctx, ackTuple(1, 1, 1, 0)) // tree 1 completes
	got := cap.completions()
	if len(got) != 1 || got[0].Field(1).AsInt() != 1 {
		t.Fatalf("completions = %v", got)
	}
	if a.Pending() != 1 {
		t.Fatalf("pending = %d", a.Pending())
	}
}

func TestAckerIgnoresNonAckTuples(t *testing.T) {
	a := ack.NewAcker()
	cap := &capture{}
	ctx := worker.NewContext(cap, 9, ack.NodeName, 0, nil)
	a.Execute(ctx, tuple.New(tuple.Int(1)))
	a.Execute(ctx, tuple.OnStream(tuple.AckStream, tuple.Int(1))) // too short
	if a.Pending() != 0 || len(cap.completions()) != 0 {
		t.Fatal("non-ack tuples should be ignored")
	}
}

func TestAckerSweepDropsStaleTrees(t *testing.T) {
	a := ack.NewAcker()
	a.MaxAge = time.Millisecond
	cap := &capture{}
	ctx := worker.NewContext(cap, 9, ack.NodeName, 0, nil)
	a.Execute(ctx, ackTuple(0, 77, 77, 5))
	time.Sleep(5 * time.Millisecond)
	// Sweeps run every 16384 executions; force them with no-op acks on
	// another root.
	for i := 0; i < 16384; i++ {
		a.Execute(ctx, ackTuple(1, 88, 0, 0))
	}
	if a.Pending() > 1 {
		t.Fatalf("stale tree not swept: pending=%d", a.Pending())
	}
}

func TestAckerRegisteredLogic(t *testing.T) {
	c, err := worker.NewLogic(ack.LogicName)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(worker.Bolt); !ok {
		t.Fatal("acker logic is not a bolt")
	}
}

// TestAckerBatchesInEitherOrder: a batch of INITs and a batch of ACKs for the
// same trees complete every tree whichever arrives first, and leave nothing
// pending.
func TestAckerBatchesInEitherOrder(t *testing.T) {
	const n, src = 100, 5
	var inits, acks [][4]int64
	for root := int64(1); root <= n; root++ {
		edge := root * 1000
		inits = append(inits, [4]int64{0, root, root, src})
		acks = append(acks, [4]int64{1, root, root ^ edge, 0}, [4]int64{1, root, edge, 0})
	}
	for _, c := range []struct {
		name          string
		first, second tuple.Tuple
	}{
		{"INIT first", batch(inits...), batch(acks...)},
		{"ACK first", batch(acks...), batch(inits...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := ack.NewAcker()
			cap := &capture{}
			ctx := worker.NewContext(cap, 9, ack.NodeName, 0, nil)
			a.Execute(ctx, c.first)
			if got := cap.completions(); len(got) != 0 || a.Pending() != n {
				t.Fatalf("after the first batch: completions %v, pending %d", got, a.Pending())
			}
			a.Execute(ctx, c.second)
			got := cap.completions()
			if len(got) != 1 || got[0].Stream != tuple.CompleteStream || got[0].Len() != n+1 {
				t.Fatalf("completions = %v, want one COMPLETE tuple naming %d roots", got, n)
			}
			if got[0].Field(0).AsInt() != src {
				t.Fatalf("COMPLETE for source %d, want %d", got[0].Field(0).AsInt(), src)
			}
			seen := map[int64]bool{}
			for _, v := range got[0].Values[1:] {
				seen[v.AsInt()] = true
			}
			if len(seen) != n {
				t.Fatalf("COMPLETE names %d distinct roots, want %d", len(seen), n)
			}
			if a.Pending() != 0 {
				t.Fatalf("pending = %d after every tree completed", a.Pending())
			}
		})
	}
}

// TestAckerCompletesPerSource: the trees one tuple completes leave as one
// COMPLETE tuple per source worker, each naming only its own roots.
func TestAckerCompletesPerSource(t *testing.T) {
	a := ack.NewAcker()
	cap := &capture{}
	ctx := worker.NewContext(cap, 9, ack.NodeName, 0, nil)
	a.Execute(ctx, batch([4]int64{0, 1, 1, 5}, [4]int64{0, 2, 2, 6}, [4]int64{0, 3, 3, 5}, [4]int64{0, 4, 4, 6}))
	a.Execute(ctx, batch([4]int64{1, 1, 1, 0}, [4]int64{1, 2, 2, 0}, [4]int64{1, 3, 3, 0}, [4]int64{1, 4, 4, 0}))
	got := map[int64][]int64{}
	for _, c := range cap.completions() {
		src := c.Field(0).AsInt()
		if _, dup := got[src]; dup {
			t.Fatalf("two COMPLETE tuples for source %d", src)
		}
		for _, v := range c.Values[1:] {
			got[src] = append(got[src], v.AsInt())
		}
	}
	if len(got) != 2 || !slices.Equal(got[5], []int64{1, 3}) || !slices.Equal(got[6], []int64{2, 4}) {
		t.Fatalf("completions by source = %v, want 5:[1 3] 6:[2 4]", got)
	}
}

// TestAckerIgnoresPartialRecord: a tuple whose field count is not a multiple
// of four is processed up to its last whole record.
func TestAckerIgnoresPartialRecord(t *testing.T) {
	a := ack.NewAcker()
	cap := &capture{}
	ctx := worker.NewContext(cap, 9, ack.NodeName, 0, nil)
	in := batch([4]int64{0, 1, 1, 5}, [4]int64{1, 1, 1, 0})
	in.Values = append(in.Values, tuple.Int(0), tuple.Int(2), tuple.Int(2))
	a.Execute(ctx, in)
	got := cap.completions()
	if len(got) != 1 || got[0].Len() != 2 || got[0].Field(1).AsInt() != 1 {
		t.Fatalf("completions = %v, want tree 1 alone", got)
	}
	if a.Pending() != 0 {
		t.Fatalf("pending = %d: the partial record opened a tree", a.Pending())
	}
}

// refAcker is the acker's semantics one record at a time, the reference
// FuzzAckerExecute checks the batched acker against.
type refAcker map[uint64]*refTree

type refTree struct {
	xor  uint64
	src  topology.WorkerID
	init bool
}

type completion struct {
	src  topology.WorkerID
	root uint64
}

func (r refAcker) execute(vals []tuple.Value) (done []completion) {
	for ; len(vals) >= 4; vals = vals[4:] {
		root := uint64(vals[1].AsInt())
		e := r[root]
		if e == nil {
			e = &refTree{}
			r[root] = e
		}
		e.xor ^= uint64(vals[2].AsInt())
		if vals[0].AsInt() == 0 {
			e.init, e.src = true, topology.WorkerID(vals[3].AsInt())
		}
		if e.init && e.xor == 0 {
			delete(r, root)
			done = append(done, completion{e.src, root})
		}
	}
	return done
}

// fuzzValue maps one input byte to a field: below 0xC0 a small integer (so
// roots collide and XORs cancel), above it a value of another kind.
func fuzzValue(b byte) tuple.Value {
	if b < 0xC0 {
		return tuple.Int(int64(b & 0x0F))
	}
	switch b & 3 {
	case 0:
		return tuple.String("x")
	case 1:
		return tuple.Float(-1.5)
	case 2:
		return tuple.Bytes(nil)
	default:
		return tuple.Nil()
	}
}

// FuzzAckerExecute: ack tuples arrive off the wire, so no field count or
// kind may panic the acker, and every tuple must complete exactly the trees
// the one-record-at-a-time reference completes, one COMPLETE tuple per
// source, leaving the same trees pending. 0xFF ends one tuple and starts the
// next.
func FuzzAckerExecute(f *testing.F) {
	f.Add([]byte{0, 1, 1, 5, 1, 1, 1, 0})
	f.Add([]byte{1, 2, 3, 0, 0xFF, 0, 2, 2, 7, 1, 2, 1, 0, 0, 3, 3, 6, 1, 3})
	f.Add([]byte{0, 1, 1, 5, 0, 2, 2, 6, 0, 3, 3, 5, 0xFF, 1, 1, 1, 0, 1, 2, 2, 0, 1, 3, 3, 0, 1})
	f.Add([]byte{0xC0, 1, 1, 0xC3, 0, 0xC1, 0xC1, 0xC2})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := ack.NewAcker()
		cap := &capture{}
		ctx := worker.NewContext(cap, 9, ack.NodeName, 0, nil)
		ref := refAcker{}
		for len(data) > 0 {
			var vals []tuple.Value
			for len(data) > 0 && data[0] != 0xFF {
				vals = append(vals, fuzzValue(data[0]))
				data = data[1:]
			}
			if len(data) > 0 {
				data = data[1:]
			}
			want := ref.execute(vals)
			before := len(cap.completions())
			if err := a.Execute(ctx, tuple.OnStream(tuple.AckStream, vals...)); err != nil {
				t.Fatal(err)
			}
			var got []completion
			srcs := map[topology.WorkerID]bool{}
			for _, c := range cap.completions()[before:] {
				src := topology.WorkerID(c.Field(0).AsInt())
				if c.Stream != tuple.CompleteStream || c.Len() < 2 || srcs[src] {
					t.Fatalf("COMPLETE tuple %v: want one per source, naming at least one root", c)
				}
				srcs[src] = true
				for _, v := range c.Values[1:] {
					got = append(got, completion{src, uint64(v.AsInt())})
				}
			}
			order := func(x, y completion) int {
				return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.root, y.root))
			}
			slices.SortFunc(got, order)
			slices.SortFunc(want, order)
			if !slices.Equal(got, want) {
				t.Fatalf("completed %v, reference completed %v", got, want)
			}
			if a.Pending() != len(ref) {
				t.Fatalf("pending = %d, reference holds %d trees", a.Pending(), len(ref))
			}
		}
	})
}
