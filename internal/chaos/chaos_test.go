package chaos

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"typhoon/internal/topology"
)

func TestNetemPartitionAndHeal(t *testing.T) {
	n := NewNetem(1)
	n.Partition("h1", "h2")
	if _, drop := n.Impair("h1", "h2"); !drop {
		t.Fatal("partitioned link forwarded a frame")
	}
	if _, drop := n.Impair("h2", "h1"); !drop {
		t.Fatal("partition is bidirectional; reverse direction forwarded")
	}
	if _, drop := n.Impair("h1", "h3"); drop {
		t.Fatal("unrelated link dropped a frame")
	}
	if n.ImpairedLinks() != 2 {
		t.Fatalf("ImpairedLinks() = %d, want 2", n.ImpairedLinks())
	}
	n.Heal("h1", "h2")
	if _, drop := n.Impair("h1", "h2"); drop {
		t.Fatal("healed link dropped a frame")
	}
	if n.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", n.Dropped())
	}
}

func TestNetemDeterministicUnderFixedSeed(t *testing.T) {
	pattern := func(seed int64) []bool {
		n := NewNetem(seed)
		n.SetLink("a", "b", Impairment{DropRate: 0.5})
		out := make([]bool, 200)
		for i := range out {
			_, out[i] = n.Impair("a", "b")
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop decision %d differs under identical seed", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 200-frame drop pattern")
	}
}

func TestNetemLatencyAndJitter(t *testing.T) {
	n := NewNetem(7)
	n.SetLinkDir("a", "b", Impairment{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond})
	for i := 0; i < 50; i++ {
		delay, drop := n.Impair("a", "b")
		if drop {
			t.Fatal("latency-only link dropped a frame")
		}
		if delay < 5*time.Millisecond || delay >= 7*time.Millisecond {
			t.Fatalf("delay %v outside [5ms, 7ms)", delay)
		}
	}
	if n.Delayed() != 50 {
		t.Fatalf("Delayed() = %d, want 50", n.Delayed())
	}
	// Directed impairment: the reverse direction is untouched.
	if delay, _ := n.Impair("b", "a"); delay != 0 {
		t.Fatalf("reverse direction delayed by %v", delay)
	}
}

func TestNetemNilReceiverIsPerfect(t *testing.T) {
	var n *Netem
	if delay, drop := n.Impair("a", "b"); drop || delay != 0 {
		t.Fatal("nil Netem impaired a frame")
	}
	if n.Dropped() != 0 || n.Delayed() != 0 || n.ImpairedLinks() != 0 {
		t.Fatal("nil Netem reported activity")
	}
	n.HealAll() // must not panic
}

func TestSpecValidate(t *testing.T) {
	valid := []Spec{
		{Kind: KindPartition, Host: "h1", Peer: "h2"},
		{Kind: KindPartition, Host: "h1", Peer: "h2", Duration: time.Second},
		{Kind: KindHeal},
		{Kind: KindHeal, Host: "h1", Peer: "h2"},
		{Kind: KindNetem, Host: "h1", Peer: "h2", DropRate: 0.5},
		{Kind: KindWipeFlows, Host: "h1"},
		{Kind: KindPortDown, Topo: "t", Worker: 1},
		{Kind: KindWorkerCrash, Topo: "t", Worker: 1},
		{Kind: KindWorkerHang, Topo: "t", Worker: 1, Duration: time.Second},
		{Kind: KindWorkerSlow, Topo: "t", Worker: 1, Delay: time.Millisecond},
		{Kind: KindWorkerSlow, Topo: "t", Worker: 1}, // zero delay restores
		{Kind: KindControllerOutage},
		{Kind: KindControllerOutage, Duration: time.Second},
		{Kind: KindControllerRestore},
		{Kind: KindPacketOutDelay, Delay: time.Millisecond},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%v rejected: %v", s, err)
		}
	}
	invalid := []Spec{
		{},
		{Kind: "explode"},
		{Kind: KindPartition, Host: "h1"},
		{Kind: KindPartition, Host: "h1", Peer: "h1"},
		{Kind: KindHeal, Host: "h1"},
		{Kind: KindNetem, Host: "h1", Peer: "h2", DropRate: 1.5},
		{Kind: KindNetem, Host: "h1", Peer: "h2", DropRate: -0.1},
		{Kind: KindNetem, Host: "h1", Peer: "h2", DropRate: math.NaN()},
		{Kind: KindWipeFlows},
		{Kind: KindPortDown, Topo: "t"},
		{Kind: KindWorkerCrash, Worker: 1},
		{Kind: KindWorkerHang, Topo: "t", Worker: 1},
		{Kind: KindPartition, Host: "h1", Peer: "h2", Duration: -time.Second},
		{Kind: KindPacketOutDelay, Delay: -time.Millisecond},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}

func TestPlanDecodeRoundTripAndOrdering(t *testing.T) {
	p := Plan{
		Seed: 42,
		Events: []Event{
			{After: 2 * time.Second, Spec: Spec{Kind: KindControllerRestore}},
			{After: time.Second, Spec: Spec{Kind: KindPartition, Host: "h1", Peer: "h2"}},
		},
	}
	got, err := DecodePlan(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || len(got.Events) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	s := got.sorted()
	if s[0].Spec.Kind != KindPartition || s[1].Spec.Kind != KindControllerRestore {
		t.Fatalf("sorted() order wrong: %v then %v", s[0].Spec.Kind, s[1].Spec.Kind)
	}
	if _, err := DecodePlan([]byte(`{"events":[{"after":-1,"spec":{"kind":"heal"}}]}`)); err == nil {
		t.Fatal("negative-offset plan accepted")
	}
	if _, err := DecodePlan([]byte("not json")); err == nil {
		t.Fatal("garbage plan accepted")
	}
}

// fakeTarget records engine calls for dispatch tests. The engine invokes
// auto-reversal callbacks from its own goroutines, so every field access
// goes through the mutex.
type fakeTarget struct {
	mu       sync.Mutex
	netem    *Netem
	crashes  []topology.WorkerID
	ports    []topology.WorkerID
	hangs    []time.Duration
	slows    []time.Duration
	wipes    []string
	outages  int
	restores int
	poDelay  time.Duration
	killed   []string
}

func (f *fakeTarget) Netem() *Netem { return f.netem }
func (f *fakeTarget) CrashWorker(topo string, id topology.WorkerID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashes = append(f.crashes, id)
	return nil
}
func (f *fakeTarget) HangWorker(topo string, id topology.WorkerID, d time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hangs = append(f.hangs, d)
	return nil
}
func (f *fakeTarget) SlowWorker(topo string, id topology.WorkerID, d time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slows = append(f.slows, d)
	return nil
}
func (f *fakeTarget) DropWorkerPort(topo string, id topology.WorkerID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ports = append(f.ports, id)
	return nil
}
func (f *fakeTarget) WipeFlows(host string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.wipes = append(f.wipes, host)
	return 3, nil
}
func (f *fakeTarget) BeginControllerOutage() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.outages++
	return nil
}
func (f *fakeTarget) EndControllerOutage() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.restores++
	return nil
}
func (f *fakeTarget) SetPacketOutDelay(d time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.poDelay = d
	return nil
}
func (f *fakeTarget) KillController(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.killed = append(f.killed, id)
	return nil
}

// snapshot copies the recorded state under the lock.
func (f *fakeTarget) snapshot() (crashes, ports []topology.WorkerID, wipes []string, outages, restores int, poDelay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]topology.WorkerID(nil), f.crashes...),
		append([]topology.WorkerID(nil), f.ports...),
		append([]string(nil), f.wipes...),
		f.outages, f.restores, f.poDelay
}

func TestEngineApplyDispatchesAndRecords(t *testing.T) {
	ft := &fakeTarget{netem: NewNetem(1)}
	e := NewEngine(ft, nil)
	defer e.Stop()

	specs := []Spec{
		{Kind: KindPartition, Host: "h1", Peer: "h2"},
		{Kind: KindWorkerCrash, Topo: "t", Worker: 5},
		{Kind: KindPortDown, Topo: "t", Worker: 6},
		{Kind: KindWipeFlows, Host: "h1"},
		{Kind: KindWorkerHang, Topo: "t", Worker: 5, Duration: time.Second},
		{Kind: KindWorkerSlow, Topo: "t", Worker: 5, Delay: time.Millisecond},
		{Kind: KindControllerOutage},
		{Kind: KindControllerRestore},
		{Kind: KindPacketOutDelay, Delay: 2 * time.Millisecond},
		{Kind: KindHeal},
	}
	for _, s := range specs {
		if err := e.Apply(s); err != nil {
			t.Fatalf("Apply(%v): %v", s, err)
		}
	}
	if _, drop := ft.netem.Impair("h1", "h2"); drop {
		t.Fatal("heal did not clear the partition")
	}
	crashes, ports, wipes, outages, restores, poDelay := ft.snapshot()
	if len(crashes) != 1 || crashes[0] != 5 {
		t.Fatalf("crashes = %v", crashes)
	}
	if len(ports) != 1 || ports[0] != 6 {
		t.Fatalf("ports = %v", ports)
	}
	if len(wipes) != 1 || outages != 1 || restores != 1 {
		t.Fatalf("wipes=%v outages=%d restores=%d", wipes, outages, restores)
	}
	if poDelay != 2*time.Millisecond {
		t.Fatalf("poDelay = %v", poDelay)
	}
	if e.Count(KindWorkerCrash) != 1 || e.Count(KindPartition) != 1 {
		t.Fatal("injection counters not incremented")
	}
	if got := len(e.Injections()); got != len(specs) {
		t.Fatalf("Injections() = %d records, want %d", got, len(specs))
	}
	if err := e.Apply(Spec{Kind: "explode"}); err == nil {
		t.Fatal("invalid spec applied")
	}
}

func TestEngineAutoReversalWindows(t *testing.T) {
	ft := &fakeTarget{netem: NewNetem(1)}
	e := NewEngine(ft, nil)
	defer e.Stop()

	if err := e.Apply(Spec{Kind: KindPartition, Host: "h1", Peer: "h2", Duration: 30 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, drop := ft.netem.Impair("h1", "h2"); !drop {
		t.Fatal("partition not applied")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, drop := ft.netem.Impair("h1", "h2"); !drop {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partition window never auto-healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if e.Count(KindHeal) != 1 {
		t.Fatalf("Count(heal) = %d after auto-reversal, want 1", e.Count(KindHeal))
	}

	if err := e.Apply(Spec{Kind: KindControllerOutage, Duration: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		if _, _, _, _, restores, _ := ft.snapshot(); restores > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("outage window never auto-restored")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestEngineRunPlanFiresInOrder(t *testing.T) {
	ft := &fakeTarget{netem: NewNetem(9)}
	e := NewEngine(ft, nil)
	defer e.Stop()

	plan := Plan{Events: []Event{
		{After: 20 * time.Millisecond, Spec: Spec{Kind: KindWorkerCrash, Topo: "t", Worker: 2}},
		{After: 0, Spec: Spec{Kind: KindWorkerCrash, Topo: "t", Worker: 1}},
	}}
	if err := e.RunPlan(plan); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Count(KindWorkerCrash) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("plan events did not all fire")
		}
		time.Sleep(5 * time.Millisecond)
	}
	crashes, _, _, _, _, _ := ft.snapshot()
	if crashes[0] != 1 || crashes[1] != 2 {
		t.Fatalf("plan fired out of order: %v", crashes)
	}
	if err := e.RunPlan(Plan{Events: []Event{{Spec: Spec{Kind: "explode"}}}}); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestEngineStormModeRejectsLinkFaults(t *testing.T) {
	e := NewEngine(&fakeTarget{netem: nil}, nil)
	defer e.Stop()
	for _, s := range []Spec{
		{Kind: KindPartition, Host: "h1", Peer: "h2"},
		{Kind: KindNetem, Host: "h1", Peer: "h2", DropRate: 0.1},
		{Kind: KindHeal},
	} {
		if err := e.Apply(s); err == nil {
			t.Fatalf("%v applied without a tunnel fabric", s.Kind)
		}
	}
}

func TestEngineHandler(t *testing.T) {
	ft := &fakeTarget{netem: NewNetem(1)}
	e := NewEngine(ft, nil)
	defer e.Stop()
	h := e.Handler()

	post := httptest.NewRequest("POST", "/api/chaos",
		strings.NewReader(`{"kind":"partition","host":"h1","peer":"h2"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, post)
	if rec.Code != 200 {
		t.Fatalf("POST status = %d: %s", rec.Code, rec.Body)
	}
	if _, drop := ft.netem.Impair("h1", "h2"); !drop {
		t.Fatal("POSTed partition not applied")
	}

	bad := httptest.NewRequest("POST", "/api/chaos", strings.NewReader(`{"kind":"partition"}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, bad)
	if rec.Code != 422 {
		t.Fatalf("invalid spec status = %d, want 422", rec.Code)
	}

	get := httptest.NewRequest("GET", "/api/chaos", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, get)
	var log []Injection
	if err := json.Unmarshal(rec.Body.Bytes(), &log); err != nil {
		t.Fatalf("GET body: %v", err)
	}
	if len(log) != 1 || log[0].Spec.Kind != KindPartition {
		t.Fatalf("injection log = %+v", log)
	}

	del := httptest.NewRequest("DELETE", "/api/chaos", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, del)
	if rec.Code != 405 {
		t.Fatalf("DELETE status = %d, want 405", rec.Code)
	}
}
