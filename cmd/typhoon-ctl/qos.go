package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"

	"typhoon/internal/apiclient"
)

// runQoS inspects and reconfigures multi-tenant QoS through the API's
// /api/v1/qos route:
//
//	typhoon-ctl qos status
//	typhoon-ctl qos set wordcount guaranteed 8000000
//
// "status" renders the per-topology rate-class assignment (with the
// bandwidth allocator's current per-host meter rates) and each host's
// meter and egress-queue counters. "set" reassigns a running topology's
// class and, optionally, its configured bandwidth in bytes/s; omitting
// the rate leaves the actual rate to the online allocator.
func runQoS(cl *apiclient.Client, args []string) {
	if len(args) == 0 {
		qosUsage()
	}
	switch args[0] {
	case "status":
		runQoSStatus(cl)
	case "set":
		if len(args) != 3 && len(args) != 4 {
			qosUsage()
		}
		topo, class := args[1], args[2]
		var rate uint64
		if len(args) == 4 {
			parsed, err := strconv.ParseUint(args[3], 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad rate %q (bytes/s): %w", args[3], err))
			}
			rate = parsed
		}
		if err := cl.QoSSet(topo, class, rate); err != nil {
			fatal(err)
		}
		if rate > 0 {
			fmt.Printf("topology %s is now %s at %d B/s\n", topo, class, rate)
		} else {
			fmt.Printf("topology %s is now %s (rate managed by the allocator)\n", topo, class)
		}
	default:
		qosUsage()
	}
}

func runQoSStatus(cl *apiclient.Client) {
	st, err := cl.QoS()
	if err != nil {
		fatal(err)
	}
	if !st.Enabled {
		fmt.Println("QoS is not enabled on this cluster (start it with typhoon-cluster -qos)")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TOPOLOGY\tCLASS\tCONFIGURED\tALLOCATED (host=B/s)")
	for _, t := range st.Topologies {
		conf := "-"
		if t.ConfiguredBps > 0 {
			conf = strconv.FormatUint(t.ConfiguredBps, 10)
		}
		hosts := make([]string, 0, len(t.HostRates))
		for h := range t.HostRates {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		alloc := ""
		for i, h := range hosts {
			if i > 0 {
				alloc += " "
			}
			if r := t.HostRates[h]; r == 0 {
				alloc += h + "=unmetered"
			} else {
				alloc += h + "=" + strconv.FormatUint(r, 10)
			}
		}
		if alloc == "" {
			alloc = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", t.Topology, t.Class, conf, alloc)
	}
	fmt.Fprintln(w, "\nHOST\tMETER DROPS\tQUEUE\tDEPTH\tENQ\tDROP")
	for _, h := range st.Hosts {
		if len(h.Queues) == 0 {
			fmt.Fprintf(w, "%s\t%d\t-\t-\t-\t-\n", h.Host, h.MeterDrops)
			continue
		}
		for i, q := range h.Queues {
			host, drops := "", ""
			if i == 0 {
				host = h.Host
				drops = strconv.FormatUint(h.MeterDrops, 10)
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\n",
				host, drops, q.Class, q.Depth, q.Enqueued, q.Dropped)
		}
	}
	w.Flush()
}

func qosUsage() {
	fmt.Fprintln(os.Stderr, `usage: typhoon-ctl [flags] qos VERB ...
verbs:
  status                      per-topology classes, allocator rates, meter/queue stats
  set TOPO CLASS [RATE_BPS]   reassign a topology's rate class
                              (classes: guaranteed | burstable | best-effort;
                               omit RATE_BPS to let the allocator set meter rates)`)
	os.Exit(2)
}
