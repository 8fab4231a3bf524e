// Command bench is the repository's one benchmark: four paced workloads
// through real core.Clusters, end-to-end metrics with tracing off, and a
// traced pass that attributes the cost to layers. README.md defines every
// workload and metric.
//
// With -workload it measures that workload once and ends its output with
// one JSON object (the form the benchmark driver calls). Without, it runs
// the whole set — every workload, both passes, each in a child process —
// and prints the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
)

// defaultSeconds is the measured time of one pass; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 20

type flags struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	smoke      bool
	repeat     int
	cpuprofile string
	memprofile string
	injectLoss bool
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "measure this one workload and end with the result as one JSON object; empty runs the whole set")
	flag.Int64Var(&f.seed, "seed", 1, "seed for key draws and payload bytes")
	flag.Float64Var(&f.seconds, "seconds", defaultSeconds, "measured seconds per pass")
	flag.IntVar(&f.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = traced pass, per-layer metrics")
	flag.BoolVar(&f.smoke, "smoke", false, "2-second passes, probes at 1/20 size, no bounds check")
	flag.IntVar(&f.repeat, "repeat", 1, "run the whole set this many times and check the spread against the bounds")
	flag.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile per workload and pass to <prefix>.<workload>.t<trace>.cpu.pprof")
	flag.StringVar(&f.memprofile, "memprofile", "", "write a heap profile per workload and pass to <prefix>.<workload>.t<trace>.mem.pprof")
	flag.BoolVar(&f.injectLoss, "inject-loss", false, "test hook: make the source skip one sequence number, which the checker must report")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if f.smoke && f.seconds == defaultSeconds {
		f.seconds = 2
	}
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	if f.workload == "" {
		os.Exit(runSet(f))
	}
	os.Exit(runOne(f))
}

// benchDir finds the benchmark's own directory from the working
// directory: the driver and run.sh start at the repository root, go run
// starts inside bench/.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

// fingerprint describes what was measured on what.
func fingerprint(f flags, w *workload, p plan) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				commit = s.Value[:12]
			}
		}
	}
	cpu := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("commit=%s go=%s nproc=%d gomaxprocs=%d cpu=%q workload=%s seed=%d trace=%d seconds=%g "+
		"warm=%v low=%v@%g/s mid=%v@%g/s sat=%v window=%d traced-mid=%v storm-sat=%v setups=%d",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, w.name, f.seed, f.trace, f.seconds,
		p.warm, p.low, w.lowRate, p.mid, w.midRate, p.sat, satWindow, p.traced, p.storm, p.setups)
}

// jsonMetric and jsonResult are the last line of a single-workload run.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// runOne measures one workload and prints every metric by name with its
// unit, then the JSON object. It returns the exit code: 1 on any
// violation or error.
func runOne(f flags) int {
	w := workloadByName(f.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", f.workload)
		return 2
	}
	if f.trace != 0 && f.trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1\n")
		return 2
	}
	traced := f.trace == 1
	fmt.Printf("# %s\n", fingerprint(f, w, planFor(f.seconds, traced, f.smoke)))
	stopProfile := startProfiles(f, w)
	res, err := runPass(options{
		workload: w, seed: f.seed, seconds: f.seconds, traced: traced, smoke: f.smoke,
		injectLoss: f.injectLoss, outDir: filepath.Join(benchDir(), "out"),
	}, func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) })
	stopProfile()
	if err == nil {
		err = res.checkFinite()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}

	defs, contract := endToEnd, endToEnd[:contractEndToEnd]
	if traced {
		defs, contract = perLayer, perLayer
	}
	for _, d := range defs {
		if v, ok := res.metrics[d.name]; ok {
			fmt.Printf("metric %s %v %s\n", d.name, v, d.unit)
		}
	}
	fmt.Printf("metric attempted %d count\nmetric failed %d count\n", res.attempted, res.failed)
	for _, line := range res.fails {
		fmt.Printf("fail %s\n", line)
	}
	out := jsonResult{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range contract {
		v, ok := res.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured\n", w.name, d.name)
			return 1
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(blob))
	if !out.Correct {
		return 1
	}
	return 0
}

// startProfiles starts the requested profiles for this workload and pass
// and returns what finishes them.
func startProfiles(f flags, w *workload) func() {
	name := func(prefix, kind string) string {
		return fmt.Sprintf("%s.%s.t%d.%s.pprof", prefix, w.name, f.trace, kind)
	}
	var cpuFile *os.File
	if f.cpuprofile != "" {
		var err error
		if cpuFile, err = os.Create(name(f.cpuprofile, "cpu")); err != nil {
			fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
		} else if err = pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: cpu profile: %v\n", err)
			}
		}
		if f.memprofile == "" {
			return
		}
		mf, err := os.Create(name(f.memprofile, "mem"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: heap profile: %v\n", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fmt.Fprintf(os.Stderr, "bench: heap profile: %v\n", err)
		}
		if err := mf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: heap profile: %v\n", err)
		}
	}
}
