// Command typhoon-bench regenerates the paper's evaluation tables and
// figures (§6) on the emulated cluster and prints each result's rows or
// series. One experiment can print several results from one set of runs
// (fig8bcd prints Fig 8b, 8c and 8d; fig12 prints Fig 12 and Table 5).
//
// Usage:
//
//	typhoon-bench -list
//	typhoon-bench -run fig8a,fig12
//	typhoon-bench -run all -warmup 2s -measure 5s
//
// Longer windows give smoother numbers; the defaults keep a full sweep
// under a few minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"typhoon/internal/experiments"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		run     = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		warmup  = flag.Duration("warmup", time.Second, "discarded warmup before each measurement")
		measure = flag.Duration("measure", 2*time.Second, "measurement window")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}
	params := experiments.Params{Warmup: *warmup, Measure: *measure}

	var entries []experiments.Entry
	if *run == "all" {
		entries = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e := experiments.ByID(id)
			if e == nil {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			entries = append(entries, *e)
		}
	}
	failed := false
	for _, e := range entries {
		start := time.Now()
		for _, res := range e.Run(params) {
			res.Print(os.Stdout)
			failed = failed || res.Err != nil
		}
		fmt.Printf("  (%.1fs)\n\n", time.Since(start).Seconds())
	}
	if failed {
		os.Exit(1)
	}
}
