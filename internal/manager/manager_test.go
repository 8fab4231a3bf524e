package manager

import (
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"typhoon/internal/ack"
	"typhoon/internal/coordinator"
	"typhoon/internal/paths"
	"typhoon/internal/scheduler"
	"typhoon/internal/topology"
	"typhoon/internal/tuple"
)

func newManager(t *testing.T, hosts ...string) (*Manager, *coordinator.Store) {
	t.Helper()
	store := coordinator.NewStore()
	for _, h := range hosts {
		if _, err := store.Put(paths.Agent(h), []byte(`{"host":"`+h+`"}`)); err != nil {
			t.Fatal(err)
		}
	}
	m := New(store, Options{Scheduler: scheduler.RoundRobin{}})
	t.Cleanup(m.Stop)
	return m, store
}

func sampleTopology(t *testing.T, ackers int) *topology.Logical {
	t.Helper()
	b := topology.NewBuilder("sample", 1)
	if ackers > 0 {
		b.Ackers(ackers)
	}
	b.Source("src", "logic/src", 1)
	b.Node("mid", "logic/mid", 2).ShuffleFrom("src")
	b.Node("sink", "logic/sink", 1).GlobalFrom("mid")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSubmitStoresBothTopologies(t *testing.T) {
	m, store := newManager(t, "h1", "h2")
	if err := m.Submit(sampleTopology(t, 0)); err != nil {
		t.Fatal(err)
	}
	l, p, err := m.Describe("sample")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Nodes) != 3 || len(p.Workers) != 4 {
		t.Fatalf("nodes=%d workers=%d", len(l.Nodes), len(p.Workers))
	}
	if err := m.Submit(sampleTopology(t, 0)); err == nil {
		t.Fatal("duplicate submit accepted")
	}
	if _, _, err := store.Get(paths.Physical("sample")); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitRequiresAgents(t *testing.T) {
	m, _ := newManager(t) // no agents registered
	if err := m.Submit(sampleTopology(t, 0)); err == nil {
		t.Fatal("submit without agents accepted")
	}
}

func TestSubmitWiresAckers(t *testing.T) {
	m, _ := newManager(t, "h1")
	if err := m.Submit(sampleTopology(t, 2)); err != nil {
		t.Fatal(err)
	}
	l, p, _ := m.Describe("sample")
	ackNode := l.Node(ack.NodeName)
	if ackNode == nil || ackNode.Parallelism != 2 || ackNode.Logic != ack.LogicName {
		t.Fatalf("acker node = %+v", ackNode)
	}
	// Every application node has an ack edge; the acker notifies sources.
	ackEdges, completeEdges := 0, 0
	for _, e := range l.Edges {
		if e.To == ack.NodeName && e.Stream == tuple.AckStream {
			ackEdges++
		}
		if e.From == ack.NodeName && e.Stream == tuple.CompleteStream {
			if e.Policy != topology.Direct {
				t.Fatal("completion edge must be direct")
			}
			completeEdges++
		}
	}
	if ackEdges != 3 || completeEdges != 1 {
		t.Fatalf("ackEdges=%d completeEdges=%d", ackEdges, completeEdges)
	}
	if len(p.Instances(ack.NodeName)) != 2 {
		t.Fatal("acker instances not scheduled")
	}
}

func TestSetParallelismBumpsGeneration(t *testing.T) {
	m, _ := newManager(t, "h1", "h2")
	if err := m.Submit(sampleTopology(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetParallelism("sample", "mid", 4); err != nil {
		t.Fatal(err)
	}
	l, p, _ := m.Describe("sample")
	if l.Generation != 1 || p.Generation != 1 {
		t.Fatalf("generations = %d/%d", l.Generation, p.Generation)
	}
	if l.Node("mid").Parallelism != 4 || len(p.Instances("mid")) != 4 {
		t.Fatal("parallelism not applied")
	}
	if err := m.SetParallelism("sample", "ghost", 2); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := m.SetParallelism("sample", "mid", 0); err == nil {
		t.Fatal("zero parallelism accepted")
	}
}

func TestSwapLogicReplacesWorkers(t *testing.T) {
	m, _ := newManager(t, "h1")
	if err := m.Submit(sampleTopology(t, 0)); err != nil {
		t.Fatal(err)
	}
	_, p0, _ := m.Describe("sample")
	oldIDs := map[topology.WorkerID]bool{}
	for _, a := range p0.Instances("mid") {
		oldIDs[a.Worker] = true
	}
	if err := m.SwapLogic("sample", "mid", "logic/mid-v2"); err != nil {
		t.Fatal(err)
	}
	l, p, _ := m.Describe("sample")
	if l.Node("mid").Logic != "logic/mid-v2" {
		t.Fatal("logic not swapped")
	}
	for _, a := range p.Instances("mid") {
		if oldIDs[a.Worker] {
			t.Fatalf("worker %d reused across logic swap", a.Worker)
		}
	}
	// Other nodes keep their workers.
	if p.Instances("src")[0].Worker != p0.Instances("src")[0].Worker {
		t.Fatal("unrelated workers replaced")
	}
}

func TestSetRoutingPolicy(t *testing.T) {
	m, _ := newManager(t, "h1")
	if err := m.Submit(sampleTopology(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRoutingPolicy("sample", "src", "mid", topology.Fields, []int{0}); err != nil {
		t.Fatal(err)
	}
	l, _, _ := m.Describe("sample")
	for _, e := range l.Edges {
		if e.From == "src" && e.To == "mid" && e.Policy != topology.Fields {
			t.Fatal("policy not updated")
		}
	}
	if err := m.SetRoutingPolicy("sample", "a", "b", topology.Shuffle, nil); err == nil {
		t.Fatal("unknown edge accepted")
	}
}

func TestAddRemoveDetachedNode(t *testing.T) {
	m, _ := newManager(t, "h1", "h2")
	if err := m.Submit(sampleTopology(t, 0)); err != nil {
		t.Fatal(err)
	}
	spec := topology.NodeSpec{Name: "__debug-1", Logic: "logic/debug"}
	if err := m.AddDetachedNode("sample", spec, "h2"); err != nil {
		t.Fatal(err)
	}
	_, p, _ := m.Describe("sample")
	inst := p.Instances("__debug-1")
	if len(inst) != 1 || inst[0].Host != "h2" {
		t.Fatalf("debug instances = %+v", inst)
	}
	if err := m.AddDetachedNode("sample", spec, "h2"); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if err := m.RemoveNode("sample", "__debug-1"); err != nil {
		t.Fatal(err)
	}
	_, p, _ = m.Describe("sample")
	if len(p.Instances("__debug-1")) != 0 {
		t.Fatal("debug node not removed")
	}
	if err := m.RemoveNode("sample", "mid"); err == nil {
		t.Fatal("removing a wired node must fail")
	}
}

func TestKillCleansUp(t *testing.T) {
	m, store := newManager(t, "h1")
	if err := m.Submit(sampleTopology(t, 0)); err != nil {
		t.Fatal(err)
	}
	store.Put(paths.Heartbeat("sample", 1), []byte("1"))
	if err := m.Kill("sample"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Get(paths.Logical("sample")); err != coordinator.ErrNotFound {
		t.Fatal("logical topology survived kill")
	}
	if _, _, err := store.Get(paths.Heartbeat("sample", 1)); err != coordinator.ErrNotFound {
		t.Fatal("heartbeats survived kill")
	}
	if err := m.Kill("sample"); err == nil {
		t.Fatal("double kill accepted")
	}
}

func TestHeartbeatMonitorReschedules(t *testing.T) {
	store := coordinator.NewStore()
	for _, h := range []string{"h1", "h2"} {
		store.Put(paths.Agent(h), []byte(`{}`))
	}
	m := New(store, Options{
		Scheduler:        scheduler.RoundRobin{},
		HeartbeatTimeout: 150 * time.Millisecond,
		MonitorInterval:  50 * time.Millisecond,
	})
	m.Start()
	defer m.Stop()
	if err := m.Submit(sampleTopology(t, 0)); err != nil {
		t.Fatal(err)
	}
	_, p0, _ := m.Describe("sample")
	victim := p0.Workers[0]
	// Heartbeat everyone except the victim.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
				now := []byte(strconv.FormatInt(time.Now().UnixNano(), 10))
				for _, a := range p0.Workers[1:] {
					store.Put(paths.Heartbeat("sample", a.Worker), now)
				}
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, p, err := m.Describe("sample")
		if err == nil {
			if as := p.Worker(victim.Worker); as != nil && as.Host != victim.Host && as.Port == 0 {
				return // rescheduled to the other host with port cleared
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never rescheduled")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestWaitReady(t *testing.T) {
	m, store := newManager(t, "h1")
	if err := m.Submit(sampleTopology(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitReady("sample", 50*time.Millisecond); err == nil {
		t.Fatal("ready before controller wrote netready")
	}
	store.Put(paths.NetReady("sample"), []byte("0"))
	if err := m.WaitReady("sample", time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestWaitReadyClosedCoordinator: a wait that outlives its coordinator (a
// Submit racing Cluster.Stop) ends when the store closes, not at its
// deadline.
func TestWaitReadyClosedCoordinator(t *testing.T) {
	m, store := newManager(t, "h1")
	if err := m.Submit(sampleTopology(t, 0)); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(20*time.Millisecond, store.Close)
	start := time.Now()
	err := m.WaitReady("sample", 2*time.Second)
	if !errors.Is(err, coordinator.ErrClosed) {
		t.Fatalf("err = %v, want coordinator.ErrClosed", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("returned after %v, not when the store closed", el)
	}
}

// countingKV counts reads of one path.
type countingKV struct {
	coordinator.KV
	path  string
	reads atomic.Int64
}

func (k *countingKV) Get(p string) ([]byte, int64, error) {
	if p == k.path {
		k.reads.Add(1)
	}
	return k.KV.Get(p)
}

// TestWaitReadyWakesOnNetReady: WaitReady reads netready when it starts and
// when the controller writes it, not on a clock.
func TestWaitReadyWakesOnNetReady(t *testing.T) {
	store := coordinator.NewStore()
	if _, err := store.Put(paths.Agent("h1"), []byte(`{"host":"h1"}`)); err != nil {
		t.Fatal(err)
	}
	kv := &countingKV{KV: store, path: paths.NetReady("sample")}
	m := New(kv, Options{Scheduler: scheduler.RoundRobin{}})
	t.Cleanup(m.Stop)
	if err := m.Submit(sampleTopology(t, 0)); err != nil {
		t.Fatal(err)
	}
	l, _, err := m.Describe("sample")
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(200*time.Millisecond, func() {
		store.Put(paths.NetReady("sample"), []byte(strconv.FormatInt(l.Generation, 10)))
	})
	if err := m.WaitReady("sample", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := kv.reads.Load(); n > 3 {
		t.Fatalf("netready read %d times over a 200 ms wait, want at most 3", n)
	}
}
