package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"typhoon/internal/apiclient"
)

// runRescale triggers a managed stable rescale (§3.5) through the API's
// /api/v1/rescale route and prints the report:
//
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 rescale wordcount count 4
//
// Unlike the "scale" verb, which only rewrites the logical topology, this
// runs the full three-phase protocol: pause and
// drain sources, migrate keyed state onto the new instance set, reprogram
// flow rules, and resume.
func runRescale(cl *apiclient.Client, args []string) {
	if len(args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: typhoon-ctl [flags] rescale TOPO NODE N [TIMEOUT]")
		os.Exit(2)
	}
	parallelism, err := strconv.Atoi(args[2])
	if err != nil {
		fatal(fmt.Errorf("bad parallelism %q: %w", args[2], err))
	}
	var timeout time.Duration
	if len(args) >= 4 {
		timeout, err = time.ParseDuration(args[3])
		if err != nil {
			fatal(fmt.Errorf("bad timeout %q: %w", args[3], err))
		}
	}
	report, err := cl.Rescale(args[0], args[1], parallelism, timeout)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rescaled %s/%s %d -> %d (generation %d)\n",
		report.Topology, report.Node, report.From, report.To, report.Generation)
	fmt.Printf("  paused  %v (drain %v)\n", report.Pause, report.Drain)
	fmt.Printf("  state   %d key(s), %d byte(s) migrated\n",
		report.KeysMigrated, report.StateBytes)
}
