package main

import (
	"fmt"
	"io"
	"strconv"

	"typhoon/internal/apiclient"
)

// runTopologies serves the streaming-manager verbs through the API's
// /api/v1/topologies route:
//
//	typhoon-ctl list
//	typhoon-ctl describe wordcount
//	typhoon-ctl scale wordcount split 4
//	typhoon-ctl swap wordcount split workload/splitter
//	typhoon-ctl kill wordcount
//
// scale only rewrites the logical topology and reschedules; for a stateful
// node use rescale, which pauses, drains and migrates keyed state. Any other
// verb, or too few operands, is errUsage.
func runTopologies(cl *apiclient.Client, args []string, out io.Writer) error {
	need := map[string]int{"list": 1, "describe": 2, "scale": 4, "swap": 4, "kill": 2}
	if len(args) < need[args[0]] {
		return errUsage
	}
	switch args[0] {
	case "list":
		names, err := cl.Topologies()
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(out, n)
		}
	case "describe":
		l, p, err := cl.Describe(args[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "topology %s (app %d, generation %d)\n", l.Name, l.App, l.Generation)
		for _, n := range l.Nodes {
			fmt.Fprintf(out, "  node %-16s logic=%s parallelism=%d", n.Name, n.Logic, n.Parallelism)
			if n.Source {
				fmt.Fprint(out, " [source]")
			}
			if n.Stateful {
				fmt.Fprint(out, " [stateful]")
			}
			fmt.Fprintln(out)
		}
		for _, e := range l.Edges {
			fmt.Fprintf(out, "  edge %s -> %s (%s)\n", e.From, e.To, e.Policy)
		}
		for _, a := range p.Workers {
			fmt.Fprintf(out, "  worker %-4d %-16s host=%s port=%d\n", a.Worker, a.Node, a.Host, a.Port)
		}
	case "scale":
		n, err := strconv.Atoi(args[3])
		if err != nil {
			return err
		}
		if err := cl.Scale(args[1], args[2], n); err != nil {
			return err
		}
		fmt.Fprintf(out, "node %s of %s scaled to %d\n", args[2], args[1], n)
	case "swap":
		if err := cl.SwapLogic(args[1], args[2], args[3]); err != nil {
			return err
		}
		fmt.Fprintf(out, "node %s of %s now runs %s\n", args[2], args[1], args[3])
	case "kill":
		if err := cl.Kill(args[1]); err != nil {
			return err
		}
		fmt.Fprintf(out, "topology %s killed\n", args[1])
	default:
		return errUsage
	}
	return nil
}
