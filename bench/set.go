package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// passOutput is what the parent reads back from one child pass.
type passOutput struct {
	metrics map[string]float64
	fails   []string
	ok      bool // exit code 0
}

// runChild measures one workload pass in a fresh process of this binary,
// so no heap state leaks between workloads. The child's lines are echoed
// indented; its "metric" and "fail" lines are parsed.
func runChild(f flags, w *workload, trace int) (*passOutput, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(f.seed, 10),
		"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
	}
	if f.smoke {
		args = append(args, "-smoke")
	}
	if f.injectLoss {
		args = append(args, "-inject-loss")
	}
	if f.cpuprofile != "" {
		args = append(args, "-cpuprofile", f.cpuprofile)
	}
	if f.memprofile != "" {
		args = append(args, "-memprofile", f.memprofile)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	out := &passOutput{metrics: make(map[string]float64)}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch fields := strings.Fields(line); {
		case strings.HasPrefix(line, "{"):
			continue // the driver's JSON repeats the metric lines
		case len(fields) == 4 && fields[0] == "metric":
			if v, perr := strconv.ParseFloat(fields[2], 64); perr == nil {
				out.metrics[fields[1]] = v
			}
		case len(fields) > 1 && fields[0] == "fail":
			out.fails = append(out.fails, strings.TrimPrefix(line, "fail "))
		}
		fmt.Println("  " + line)
	}
	werr := cmd.Wait()
	if serr := sc.Err(); serr != nil {
		return nil, serr
	}
	if werr != nil {
		if _, exited := werr.(*exec.ExitError); !exited {
			return nil, werr
		}
	}
	out.ok = werr == nil
	return out, nil
}

// setResult is one full set: every workload, both passes.
type setResult struct {
	e2e    map[string]map[string]float64 // workload → metric → value
	layers map[string]map[string]float64
	bad    []string // violations
}

// runSet runs the whole benchmark -repeat times and returns the exit code.
func runSet(f flags) int {
	var sets []*setResult
	for rep := 1; rep <= f.repeat; rep++ {
		set := &setResult{e2e: map[string]map[string]float64{}, layers: map[string]map[string]float64{}}
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				fmt.Printf("== set %d/%d  %s  trace %d\n", rep, f.repeat, w.name, trace)
				out, err := runChild(f, w, trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				if !out.ok {
					set.bad = append(set.bad, fmt.Sprintf("%s trace %d: pass failed", w.name, trace))
				}
				for _, line := range out.fails {
					set.bad = append(set.bad, fmt.Sprintf("%s trace %d: %s", w.name, trace, line))
				}
				if trace == 0 {
					set.e2e[w.name] = out.metrics
				} else {
					set.layers[w.name] = out.metrics
				}
			}
		}
		set.bad = append(set.bad, structuralChecks(set)...)
		printSet(set)
		sets = append(sets, set)
	}
	code := 0
	for i, set := range sets {
		for _, b := range set.bad {
			fmt.Printf("VIOLATION set %d: %s\n", i+1, b)
			code = 1
		}
	}
	if f.repeat > 1 {
		if !printSpread(sets, !f.smoke) {
			code = 1
		}
	}
	if code == 0 {
		fmt.Println("PASS")
	} else {
		fmt.Println("FAIL")
	}
	return code
}

// structuralChecks are predictions that follow from the workloads' shape
// alone; a traced pass contradicting one means a counter or a workload is
// not what the README says it is.
func structuralChecks(set *setResult) []string {
	var bad []string
	for _, w := range workloads {
		l := set.layers[w.name]
		if len(l) == 0 {
			continue
		}
		remote, acked, bcast := w.hosts > 1, w.ackers > 0, w.sinks > 1
		if got := l["core.tunnel_frames_mid"] > 0; got != remote {
			bad = append(bad, fmt.Sprintf("%s: core.tunnel_frames_mid = %v, but the workload has %d host(s)", w.name, l["core.tunnel_frames_mid"], w.hosts))
		}
		// ≈ 1 unacked, ≈ 4 acked; window edges blur the last digits.
		if got := l["ack.frames_per_tuple"] > 1.5; got != acked {
			bad = append(bad, fmt.Sprintf("%s: ack.frames_per_tuple = %v with %d acker(s)", w.name, l["ack.frames_per_tuple"], w.ackers))
		}
		if got := l["switchfabric.replicated_mid"] > 0; got != bcast {
			bad = append(bad, fmt.Sprintf("%s: switchfabric.replicated_mid = %v with %d sink(s)", w.name, l["switchfabric.replicated_mid"], w.sinks))
		}
	}
	return bad
}

// printSet prints the set's tables: metrics down, workloads across.
func printSet(set *setResult) {
	table := func(title string, defs []metricDef, vals map[string]map[string]float64) {
		fmt.Printf("\n%s\n%-40s %-6s", title, "metric", "unit")
		for _, w := range workloads {
			fmt.Printf(" %18s", w.name)
		}
		fmt.Println()
		for _, d := range defs {
			fmt.Printf("%-40s %-6s", d.name, d.unit)
			for _, w := range workloads {
				if v, ok := vals[w.name][d.name]; ok {
					fmt.Printf(" %18.6g", v)
				} else {
					fmt.Printf(" %18s", "-")
				}
			}
			fmt.Println()
		}
	}
	table("END-TO-END (tracing off)", endToEnd, set.e2e)
	table("PER-LAYER (traced pass)", perLayer, set.layers)
	printLadder(set)
}

// printLadder lays the probes along fwd_local's tuple path and compares
// their sum with the CPU a delivered tuple really cost at saturation.
// Per-frame probes are divided by the frame occupancy measured there.
func printLadder(set *setResult) {
	l, e := set.layers["fwd_local"], set.e2e["fwd_local"]
	occ := l["packet.tuples_per_frame_sat"]
	if len(l) == 0 || len(e) == 0 || occ <= 0 {
		return
	}
	rungs := []struct {
		name string
		ns   float64
	}{
		{"tuple.encode_ns_small", l["tuple.encode_ns_small"]},
		{"packet.packetize_ns", l["packet.packetize_ns"]},
		{"ring.enq_deq_ns ×2 ÷ occupancy", 2 * l["ring.enq_deq_ns"] / occ},
		{"switchfabric.fwd_ns_batch ÷ occupancy", l["switchfabric.fwd_ns_batch"] / occ},
		{"packet.depacketize_ns", l["packet.depacketize_ns"]},
		{"tuple.decode_ns_small", l["tuple.decode_ns_small"]},
	}
	fmt.Printf("\nLADDER fwd_local (ns per tuple; occupancy %.1f tuples/frame at sat)\n", occ)
	var sum float64
	for _, r := range rungs {
		fmt.Printf("  %-40s %9.1f\n", r.name, r.ns)
		sum += r.ns
	}
	total := e["cpu_us_per_tuple_sat"] * 1e3
	fmt.Printf("  %-40s %9.1f\n", "sum of probes", sum)
	fmt.Printf("  %-40s %9.1f\n", "cpu_us_per_tuple_sat", total)
	fmt.Printf("  %-40s %9.1f  (worker loop, source, sink, scheduling)\n", "unattributed", total-sum)
	fmt.Printf("  %-40s %9.1f  (the same path as one measured rung)\n\n", "cross-check worker.emit_recv_ns", l["worker.emit_recv_ns"])
}

// printSpread prints, per workload × end-to-end metric over the sets, the
// median, quartiles and worst relative deviation from the median, and
// (when gate) reports whether every deviation stays within its bound.
func printSpread(sets []*setResult, gate bool) bool {
	ok := true
	fmt.Printf("\nSPREAD over %d sets\n%-18s %-22s %12s %12s %12s %9s %7s\n", len(sets),
		"workload", "metric", "median", "q1", "q3", "worst dev", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			var vals []float64
			for _, s := range sets {
				if v, has := s.e2e[w.name][d.name]; has {
					vals = append(vals, v)
				}
			}
			if len(vals) < 2 {
				continue
			}
			med := median(vals)
			q1, q3 := quartiles(vals)
			var worst float64
			for _, v := range vals {
				if dev := math.Abs(v-med) / med; dev > worst {
					worst = dev
				}
			}
			verdict := ""
			switch {
			case d.name == "failed_ratio":
				if worst = 0; med > 0 {
					verdict, ok = "  FAILED OPERATIONS", false
				}
			case gate && worst > d.bound:
				verdict, ok = "  OVER BOUND", false
			}
			fmt.Printf("%-18s %-22s %12.6g %12.6g %12.6g %8.1f%% %6.0f%%%s\n",
				w.name, d.name, med, q1, q3, worst*100, d.bound*100, verdict)
		}
	}
	return ok
}
