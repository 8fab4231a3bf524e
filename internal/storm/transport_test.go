package storm

import (
	"testing"
	"time"

	"typhoon/internal/topology"
	"typhoon/internal/tuple"
	"typhoon/internal/worker"
)

func pair(t *testing.T) (*Network, *TCPTransport, *TCPTransport) {
	t.Helper()
	n := NewNetwork()
	a, err := Listen(1, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen(2, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return n, a, b
}

func recvN(t *testing.T, tr *TCPTransport, n int) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	deadline := time.Now().Add(5 * time.Second)
	for len(out) < n {
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", len(out), n)
		}
		got, err := tr.Recv(64, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, got...)
	}
	return out
}

func TestUnicastDelivery(t *testing.T) {
	_, a, b := pair(t)
	for i := 0; i < 100; i++ {
		err := a.Send(worker.Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
	}
	_ = a.Flush()
	got := recvN(t, b, 100)
	for i, tp := range got {
		if tp.Field(0).AsInt() != int64(i) {
			t.Fatalf("order broken at %d: %v", i, tp)
		}
	}
}

func TestPerDestinationSerialization(t *testing.T) {
	n := NewNetwork()
	src, _ := Listen(1, n)
	defer src.Close()
	var sinks []*TCPTransport
	var ids []topology.WorkerID
	for i := 0; i < 5; i++ {
		s, err := Listen(topology.WorkerID(2+i), n)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sinks = append(sinks, s)
		ids = append(ids, s.self)
	}
	const tuples = 20
	for i := 0; i < tuples; i++ {
		// Broadcast request: the baseline degrades to per-destination.
		err := src.Send(worker.Destination{Workers: ids, Broadcast: true}, tuple.New(tuple.String("fanout")))
		if err != nil {
			t.Fatal(err)
		}
	}
	_ = src.Flush()
	for _, s := range sinks {
		recvN(t, s, tuples)
	}
	if got := src.Stats().Serializations; got != tuples*5 {
		t.Fatalf("serializations = %d, want %d (one per destination)", got, tuples*5)
	}
}

func TestSendToUnknownWorkerDrops(t *testing.T) {
	_, a, _ := pair(t)
	_ = a.Send(worker.Destination{Workers: []topology.WorkerID{99}}, tuple.New(tuple.Int(1)))
	if a.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d", a.Stats().Dropped)
	}
}

func TestSendAfterPeerClosed(t *testing.T) {
	_, a, b := pair(t)
	_ = a.Send(worker.Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(1)))
	_ = a.Flush()
	recvN(t, b, 1)
	b.Close()
	// Writes eventually fail and are counted as drops; the sender must
	// not wedge.
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drops never recorded after peer close")
		}
		_ = a.Send(worker.Destination{Workers: []topology.WorkerID{2}}, tuple.New(tuple.Int(2)))
		_ = a.Flush()
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRecvTimeoutAndClose(t *testing.T) {
	_, a, _ := pair(t)
	start := time.Now()
	got, err := a.Recv(8, 30*time.Millisecond)
	if err != nil || len(got) != 0 {
		t.Fatalf("got=%v err=%v", got, err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("returned before timeout")
	}
	a.Close()
	if _, err := a.Recv(8, time.Second); err == nil {
		t.Fatal("Recv after close should fail")
	}
}

func TestControlPathIsNoop(t *testing.T) {
	_, a, _ := pair(t)
	if err := a.SendControl(tuple.New()); err != nil {
		t.Fatal(err)
	}
	a.SetBatchSize(1) // no-op: the baseline flushes only on Flush
	if a.InQueueLen() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestWorkersOverTCPTransport(t *testing.T) {
	// Full pipeline with the worker runtime over the baseline transport.
	n := NewNetwork()
	srcTr, err := Listen(1, n)
	if err != nil {
		t.Fatal(err)
	}
	sinkTr, err := Listen(2, n)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int64, 1024)
	worker.RegisterLogic("storm-test/sink", func() worker.Component { return chanSink{got} })
	worker.RegisterLogic("storm-test/src", func() worker.Component { return &limitedSource{limit: 300} })

	sink, err := worker.New(worker.Config{App: 1, ID: 2, Node: "sink", Logic: "storm-test/sink"}, sinkTr)
	if err != nil {
		t.Fatal(err)
	}
	src, err := worker.New(worker.Config{
		App: 1, ID: 1, Node: "src", Source: true, Logic: "storm-test/src",
		Routes: []topology.Route{{
			Edge:     topology.EdgeSpec{From: "src", To: "sink", Policy: topology.Shuffle},
			NextHops: []topology.WorkerID{2},
		}},
	}, srcTr)
	if err != nil {
		t.Fatal(err)
	}
	sink.Start()
	src.Start()
	defer sink.Stop()
	defer src.Stop()

	seen := 0
	deadline := time.After(10 * time.Second)
	for seen < 300 {
		select {
		case <-got:
			seen++
		case <-deadline:
			t.Fatalf("saw %d of 300", seen)
		}
	}
}

type chanSink struct{ ch chan int64 }

func (c chanSink) Open(*worker.Context) error  { return nil }
func (c chanSink) Close(*worker.Context) error { return nil }
func (c chanSink) Execute(_ *worker.Context, in tuple.Tuple) error {
	if !in.Stream.IsSignal() {
		select {
		case c.ch <- in.Field(0).AsInt():
		default:
		}
	}
	return nil
}

type limitedSource struct{ n, limit int64 }

func (s *limitedSource) Open(*worker.Context) error  { return nil }
func (s *limitedSource) Close(*worker.Context) error { return nil }
func (s *limitedSource) Next(ctx *worker.Context) (bool, error) {
	if s.n >= s.limit {
		return false, nil
	}
	ctx.Emit(tuple.Int(s.n))
	s.n++
	return true, nil
}
