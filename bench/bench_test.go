package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// The quantile must be the smallest sample with at least q·n samples at
// or below it, found here the slow way.
func TestQuantileAgainstSortedReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r.Intn(50)) // ties included
		}
		sort.Float64s(v)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
			want := v[n-1]
			for _, x := range v {
				atOrBelow := sort.SearchFloat64s(v, x+0.5) // values are integers
				if float64(atOrBelow) >= q*float64(n) {
					want = x
					break
				}
			}
			if got := quantile(v, q); got != want {
				t.Errorf("n=%d q=%v: quantile = %v, reference = %v", n, q, got, want)
			}
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty input: %v, want 0", got)
	}
}

// quartiles must give what Python's statistics.quantiles(v, n=4) gives,
// because the contract's spread rule is written against that.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5}, // Python clamps the index but extrapolates
		{[]float64{5, 5, 5, 5, 5}, 5, 5},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// Equal seeds must give the same inputs, different seeds different ones;
// the schedule itself does not depend on the seed at all.
func TestGeneratorDeterminism(t *testing.T) {
	a, b, c := newGenerator(1, 16), newGenerator(1, 16), newGenerator(2, 16)
	if !bytes.Equal(a.draws, b.draws) || !bytes.Equal(a.payload, b.payload) || a.stampKey != b.stampKey {
		t.Fatal("two generators of seed 1 differ")
	}
	if bytes.Equal(a.draws, c.draws) {
		t.Error("seeds 1 and 2 draw the same keys")
	}
	if bytes.Equal(a.payload, c.payload) {
		t.Error("seeds 1 and 2 make the same payload")
	}
	if a.keys != c.keys {
		t.Error("key names moved with the seed; their partitions would too")
	}
	// Zipf(1.2): the first key dominates, the tail is thin.
	if a.perCycle[0] < 4*a.perCycle[9] || a.perCycle[0] < keyTableLen/8 {
		t.Errorf("key 0 drawn %d times, key 9 %d times: not the skew the workload is named for", a.perCycle[0], a.perCycle[9])
	}
	// The reference totals must agree with counting the draws one by one.
	for _, n := range []int64{0, 1, 1000, keyTableLen, keyTableLen + 17, 3*keyTableLen + 5} {
		var want [numKeys]int64
		for seq := int64(0); seq < n; seq++ {
			want[a.keyIndex(seq)]++
		}
		if got := a.keyTotals(n); got != want {
			t.Errorf("keyTotals(%d) disagrees with counting the draws", n)
		}
	}
	buf := make([]byte, 16)
	a.fill(buf, 42)
	if !a.payloadOK(buf, 42) || a.payloadOK(buf, 43) || c.payloadOK(buf, 42) {
		t.Error("payload check does not pin both the sequence number and the seed")
	}
	for i, want := range []int64{0, 500000, 1000000} {
		if got := dueOffset(int64(i), 2000); got != want {
			t.Errorf("dueOffset(%d, 2000/s) = %d ns, want %d", i, got, want)
		}
	}
}

// feed plays deliveries into an unkeyed checker and returns its verdict.
func feed(seqs []int64, emitted int64) *failures {
	c := newChecker("sink 0", newGenerator(1, 16), false)
	for _, s := range seqs {
		c.observe(s)
	}
	return c.finish(emitted)
}

func wantOnly(t *testing.T, what string, f *failures, kind failKind, n int64, mention string) {
	t.Helper()
	for k, c := range f.count {
		want := int64(0)
		if failKind(k) == kind {
			want = n
		}
		if c != want {
			t.Errorf("%s: %d %s failures, want %d (%v)", what, c, failKind(k), want, f.lines())
		}
	}
	if n > 0 && !strings.Contains(f.first[kind], mention) {
		t.Errorf("%s: failure %q does not name %q", what, f.first[kind], mention)
	}
}

func TestCheckerUnkeyed(t *testing.T) {
	wantOnly(t, "valid stream", feed([]int64{0, 1, 2, 3, 4}, 5), failLost, 0, "")
	wantOnly(t, "loss in the middle", feed([]int64{0, 1, 3, 4}, 5), failLost, 1, "1 of 5")
	wantOnly(t, "loss at the tail", feed([]int64{0, 1, 2}, 5), failLost, 2, "next expected seq 3")
	wantOnly(t, "duplicate", feed([]int64{0, 1, 2, 2, 3, 4}, 5), failDuplicate, 1, "seq 2")
	wantOnly(t, "reorder", feed([]int64{0, 2, 1, 3, 4}, 5), failReorder, 1, "seq 1")
	// A gap wider than the checker remembers is still all charged.
	wide := feed([]int64{0, maxMissing + 10}, maxMissing+11)
	wantOnly(t, "wide gap", wide, failLost, maxMissing+9, "never arrived")
}

func TestCheckerKeyed(t *testing.T) {
	g := newGenerator(1, 16)
	type delivery struct {
		seq, keySeq, count int64
		key                string
	}
	// The valid stream: every tuple in order with the right running count.
	var valid []delivery
	var perKey [numKeys]int64
	const n = 2000
	for seq := int64(0); seq < n; seq++ {
		ki := g.keyIndex(seq)
		valid = append(valid, delivery{seq, perKey[ki], perKey[ki] + 1, g.keys[ki]})
		perKey[ki]++
	}
	play := func(ds []delivery) *failures {
		c := newChecker("sink 0", g, true)
		for _, d := range ds {
			c.observeKeyed(d.seq, d.key, d.keySeq, d.count)
		}
		return c.finish(n)
	}
	mutate := func(f func([]delivery) []delivery) []delivery {
		return f(append([]delivery(nil), valid...))
	}
	victim := valid[1000]

	wantOnly(t, "valid stream", play(valid), failLost, 0, "")
	wantOnly(t, "loss", play(mutate(func(d []delivery) []delivery {
		return append(d[:1000], d[1001:]...)
	})), failLost, 1, "key "+victim.key)
	wantOnly(t, "duplicate", play(mutate(func(d []delivery) []delivery {
		return append(d[:1001], d[1000:]...)
	})), failDuplicate, 1, "key "+victim.key)
	wantOnly(t, "wrong running count", play(mutate(func(d []delivery) []delivery {
		d[1000].count += 3
		return d
	})), failWrongCount, 1, "running count")
	wantOnly(t, "wrong key", play(mutate(func(d []delivery) []delivery {
		d[1000].key = "k255x"
		return d
	})), failCorrupt, 1, "generator drew")
	// Swap two deliveries of one key: the later one arrives first.
	first, second := -1, -1
	for i, d := range valid {
		if d.key != victim.key {
			continue
		}
		if first < 0 {
			first = i
		} else {
			second = i
			break
		}
	}
	wantOnly(t, "per-key reorder", play(mutate(func(d []delivery) []delivery {
		d[first], d[second] = d[second], d[first]
		return d
	})), failReorder, 1, "key "+victim.key)
}

func TestSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 50, End: 70},
		{ID: 4, Parent: 3, Name: "leaf", Start: 55, End: 60},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatalf("well-nested spans rejected: %v", err)
	}
	self := selfTimes(spans)
	if self["root"] != 50 || self["child"] != 45 || self["leaf"] != 5 {
		t.Errorf("self times %v, want root 50, child 45, leaf 5", self)
	}
	spans[3].End = 75
	if err := checkNesting(spans); err == nil || !strings.Contains(err.Error(), "leaf") {
		t.Errorf("a child reaching past its parent was not reported: %v", err)
	}
	tr := newTracer()
	root := tr.begin("root", 0)
	kid := tr.begin("kid", root)
	tr.end(kid)
	tr.end(root)
	if err := checkNesting(tr.spans); err != nil {
		t.Errorf("tracer produced badly nested spans: %v", err)
	}
	dir := t.TempDir()
	if err := tr.dump(dir, "w1", 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.dump(dir, "w2", 1); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	blob, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Workloads) != 2 || len(tf.Workloads["w1"].Spans) != 2 {
		t.Errorf("trace.json holds %d workloads, want both dumps kept", len(tf.Workloads))
	}
}

// A phase the host stole CPU from is played again, a limited number of
// times per pass; a calm one is kept at once.
func TestStolenPhaseIsReplayed(t *testing.T) {
	ps := &pass{logf: func(string, ...any) {}, awaitCalm: func() {}}
	plays := 0
	play := func(steals ...float64) func() *phaseStats {
		return func() *phaseStats {
			st := &phaseStats{id: phaseMid, steal: steals[plays%len(steals)]}
			plays++
			return st
		}
	}
	if st := ps.undisturbed(play(0.5, 0.01)); plays != 2 || st.steal != 0.01 || ps.replays != 1 {
		t.Errorf("one stolen window: %d plays, kept steal %v, %d replays; want 2, 0.01, 1", plays, st.steal, ps.replays)
	}
	plays = 0
	if st := ps.undisturbed(play(0.5)); plays != replayBudget || st.steal != 0.5 || ps.replays != replayBudget {
		t.Errorf("host never settles: %d plays, %d replays; want the budget of %d spent and the last window kept", plays, ps.replays, replayBudget)
	}
	plays = 0
	if ps.undisturbed(play(0.5)); plays != 1 {
		t.Errorf("budget spent: %d plays, want 1", plays)
	}
	if s, total := cpuJiffies(); total == 0 {
		t.Log("no /proc/stat here: replaying is off")
	} else if got := stealShare(s, total, s+5, total+100); got != 0.05 {
		t.Errorf("stealShare = %v, want 0.05", got)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics with the same units, directions and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program %q (or their reasons differ)", i, bj.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: reason is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	agree := func(kind string, got []metric, want []metricDef, gated bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (gated && g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	agree("end_to_end", bj.EndToEnd, endToEnd[:contractEndToEnd], true)
	agree("per_layer", bj.PerLayer, perLayer, false)
}

// buildBench compiles the benchmark into a temporary directory.
func buildBench(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

// The smoke set exercises the runner end to end: child re-exec, every
// pass of every workload, the JSON line, the tables and trace.json.
func TestSmokeSet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark at smoke size")
	}
	exe := buildBench(t)
	dir := t.TempDir()
	cmd := exec.Command(exe, "-smoke", "-seed", "3")
	cmd.Dir = dir
	start := time.Now()
	out, err := cmd.CombinedOutput()
	t.Logf("smoke set took %v", time.Since(start))
	if err != nil {
		t.Fatalf("smoke set: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"PASS", "END-TO-END", "PER-LAYER", "LADDER fwd_local", "metric sat_tuples_per_s", "metric controller.rescale_pause_ms"} {
		if !strings.Contains(text, want) {
			t.Errorf("smoke output lacks %q", want)
		}
	}
	blob, err := os.ReadFile(filepath.Join(dir, "out", "trace.json"))
	if err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(blob, &tf); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		entry, ok := tf.Workloads[w.name]
		if !ok || len(entry.Spans) < 20 {
			t.Errorf("trace.json: workload %s has %d spans", w.name, len(entry.Spans))
			continue
		}
		if err := checkNesting(entry.Spans); err != nil {
			t.Errorf("trace.json: %s: %v", w.name, err)
		}
	}
}

// A single-workload run must end with the contract's JSON object, and a
// forced violation must turn the exit code non-zero and name the tuple.
func TestSingleRunJSONAndForcedViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs clusters")
	}
	exe := buildBench(t)
	lastJSON := func(out []byte) jsonResult {
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
		}
		return r
	}
	run := func(args ...string) ([]byte, error) {
		cmd := exec.Command(exe, args...)
		cmd.Dir = t.TempDir()
		return cmd.Output()
	}
	out, err := run("--workload", "fwd_local", "--seed", "5", "--seconds", "2", "--trace", "0")
	if err != nil {
		t.Fatalf("clean run failed: %v\n%s", err, out)
	}
	r := lastJSON(out)
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != contractEndToEnd {
		t.Errorf("clean run: %+v", r)
	}
	for _, d := range endToEnd[:contractEndToEnd] {
		if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("metric %s: %+v", d.name, m)
		}
	}
	out, err = run("--workload", "fwd_local", "--seconds", "2", "--trace", "0", "--inject-loss")
	if err == nil {
		t.Errorf("a run with a lost tuple exited 0")
	}
	if r := lastJSON(out); r.Correct || r.Failed != 1 {
		t.Errorf("forced loss: %+v, want exactly one failed operation", r)
	}
	if !strings.Contains(string(out), "fail lost ×1") {
		t.Errorf("forced loss is not named in the output:\n%s", out)
	}
}
