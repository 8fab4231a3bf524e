// Command typhoon-ctl inspects, reconfigures and observes a running cluster
// from another process. Every verb goes through the cluster's one operator
// door: the versioned /api/v1 surface served on typhoon-cluster's -metrics
// address, spoken via internal/apiclient.
//
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 list
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 describe wordcount
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 scale wordcount split 4
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 swap wordcount split workload/splitter
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 kill wordcount
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 metrics
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 top
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 trace
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 chaos partition h1 h2 -for 5s
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 chaos crash wordcount 3
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 chaos log
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 rescale wordcount count 4
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 controlplane status
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 qos status
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 qos set wordcount guaranteed
//
// Reconfigurations (scale, swap, kill — the dynamic topology manager
// operations of §3.2) are requests to the cluster's own streaming manager,
// which rewrites the global state in the coordinator; the controllers and
// agents converge on it exactly as for in-process requests. The worker rows
// of /api/v1/top are the answers to the topology owner's METRIC_REQ sweeps
// (every 500 ms through the control-tuple path); each row shows its age.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"typhoon/internal/apiclient"
)

// errUsage is returned for an unknown verb or a wrong operand count; main
// answers it with the usage text and exit status 2.
var errUsage = errors.New("usage")

// viewFlags are the global flags that shape the top and trace views.
type viewFlags struct {
	once     bool
	interval time.Duration
	count    int
}

func main() {
	metricsAddr := flag.String("metrics-addr", "127.0.0.1:9090", "cluster API address (typhoon-cluster -metrics)")
	var view viewFlags
	flag.BoolVar(&view.once, "once", false, "top: print one snapshot instead of refreshing")
	flag.DurationVar(&view.interval, "interval", 2*time.Second, "top: refresh period")
	flag.IntVar(&view.count, "n", 10, "trace: number of recent traces to show")
	flag.Parse()

	err := run(apiclient.New(*metricsAddr), flag.Args(), view, os.Stdout)
	if errors.Is(err, errUsage) {
		usage()
	}
	if err != nil {
		fatal(err)
	}
}

// run dispatches one verb. No request leaves the process before the verb is
// recognised, so a typo costs a usage message, not a dial error.
func run(api *apiclient.Client, args []string, view viewFlags, out io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	switch args[0] {
	case "metrics":
		runMetrics(api)
	case "top":
		runTop(api, view.interval, view.once)
	case "trace":
		runTrace(api, view.count)
	case "chaos":
		runChaos(api, args[1:])
	case "rescale":
		runRescale(api, args[1:])
	case "controlplane":
		return runControlPlane(api, args[1:], out)
	case "qos":
		runQoS(api, args[1:])
	case "batch":
		runBatch(api, args[1:])
	case "scenario":
		runScenario(api, args[1:])
	default: // the streaming-manager verbs, or a typo
		return runTopologies(api, args, out)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: typhoon-ctl [flags] {list | describe T | scale T NODE N | swap T NODE LOGIC | kill T | metrics | top | trace | chaos ... | rescale T NODE N [TIMEOUT] | controlplane status | qos {status | set T CLASS [RATE]} | batch {get | set SIZE [DEADLINE]} | scenario run SPEC.json [-duration D] [-out FILE]}")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "typhoon-ctl:", err)
	os.Exit(1)
}
