package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"typhoon/internal/apiclient"
)

// runControlPlane renders the replicated control plane's state from the
// API's /api/v1/controlplane route:
//
//	typhoon-ctl -metrics-addr 127.0.0.1:9090 controlplane status
//
// The output is two tables — controller registrations (with heartbeat
// liveness) and per-switch mastership leases (owner + fencing epoch). A
// default cluster is a set of one: ctl-0 and one lease per host.
func runControlPlane(cl *apiclient.Client, args []string, out io.Writer) error {
	if len(args) < 1 || args[0] != "status" {
		return errUsage
	}
	info, err := cl.ControlPlane()
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "CONTROLLER\tADDR\tLIVE\tHEARTBEAT")
	for _, c := range info.Controllers {
		live := "yes"
		if !c.Live {
			live = "NO"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%dms ago\n", c.ID, c.Addr, live, c.AgeMillis)
	}
	fmt.Fprintln(w, "\nSWITCH\tMASTER\tEPOCH\tLEASE")
	for _, m := range info.Masters {
		lease := "held"
		if m.Expired {
			lease = "EXPIRED"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\n", m.Host, m.Owner, m.Epoch, lease)
	}
	return w.Flush()
}
