package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"typhoon/internal/apiclient"
	"typhoon/internal/observe"
	"typhoon/internal/packet"
)

// runMetrics dumps the cluster's Prometheus exposition to stdout.
func runMetrics(cl *apiclient.Client) {
	body, err := cl.MetricsText()
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(body)
}

// runTop renders the live cluster table, refreshing until interrupted.
// Every request makes the controller issue a METRIC_REQ sweep, so the
// worker rows track the data plane live.
func runTop(cl *apiclient.Client, interval time.Duration, once bool) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	for {
		snap, err := cl.Top()
		if err != nil {
			fatal(err)
		}
		if !once {
			fmt.Print("\033[2J\033[H") // clear screen, cursor home
		}
		printTop(snap)
		if once {
			return
		}
		select {
		case <-sig:
			return
		case <-time.After(interval):
		}
	}
}

func printTop(snap observe.TopSnapshot) {
	fmt.Printf("typhoon top — %s\n\n", snap.At.Format(time.TimeOnly))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SWITCH\tPORTS\tRULES\tRX\tTX\tFWD\tREPL\tDROP")
	for _, s := range snap.Switches {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			s.Host, s.Ports, s.Rules, s.RxFrames, s.TxFrames, s.Forwarded, s.Replicated, s.Dropped)
	}
	fmt.Fprintln(tw, "\t\t\t\t\t\t\t")
	fmt.Fprintln(tw, "TOPO\tNODE\tWORKER\tHOST\tQUEUE\tPROC\tEMIT\tDROP\tAGE")
	for _, w := range snap.Workers {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d\t%d\t%d\t%d\t%.1fs\n",
			w.Topo, w.Node, w.Worker, w.Host, w.QueueLen, w.Processed, w.Emitted, w.Dropped, w.AgeSecs)
	}
	tw.Flush()
}

// runTrace prints recent completed tuple-path traces, one hop chain per
// trace: spout emit → switch ingress → rule match → egress/tunnel →
// sink dequeue.
func runTrace(cl *apiclient.Client, n int) {
	traces, err := cl.Traces(n)
	if err != nil {
		fatal(err)
	}
	if len(traces) == 0 {
		fmt.Println("no traces recorded yet (is the topology running and tracing enabled?)")
		return
	}
	for _, tr := range traces {
		span, _ := tr.E2E() // a trace missing an endpoint hop prints 0
		fmt.Printf("trace %d  e2e %.3fms  completed %s\n",
			tr.ID, float64(span)/float64(time.Millisecond), tr.CompletedAt.Format(time.TimeOnly))
		var base int64
		for _, h := range tr.Hops {
			if base == 0 {
				base = h.At
			}
			label := "detail"
			switch packet.HopKind(h.Kind) {
			case packet.HopEmit, packet.HopDequeue:
				label = "tuples" // batch frames: Detail carries the tuple count
			}
			fmt.Printf("  +%8.3fms  %-10s actor=%d %s=%d\n",
				float64(h.At-base)/1e6, packet.HopKind(h.Kind).String(), h.Actor, label, h.Detail)
		}
	}
}
