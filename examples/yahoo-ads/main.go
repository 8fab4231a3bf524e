// Yahoo advertisement analytics (the paper's Fig 13 pipeline) with a
// runtime computation-logic swap (Fig 14): the filter initially passes
// only "view" events; mid-run it is hot-swapped for logic that also passes
// "click" events — without restarting the pipeline or losing the windowed
// state in the KV store. It is the program behind the paper's Fig 14: it
// prints the aggregation rate before and after the swap, their ratio
// (expect about 2), and the per-second aggregation series across the swap.
//
//	go run ./examples/yahoo-ads
package main

import (
	"fmt"
	"log"
	"time"

	"typhoon"
	"typhoon/internal/kafkasim"
	"typhoon/internal/kvstore"
	"typhoon/internal/workload"
)

func main() {
	cluster, err := typhoon.NewCluster(typhoon.Config{Hosts: []string{"h1", "h2", "h3"}})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	// External services: the emulated Kafka input and Redis-style store.
	events := kafkasim.New(4)
	store := kvstore.New()
	gen := workload.NewAdEventGen(42, 20, 10)
	gen.PrepopulateCampaigns(store)
	cluster.Env.Set(workload.EnvKafka, events)
	cluster.Env.Set(workload.EnvKV, store)

	stats := workload.NewStats(time.Second)
	cfg := workload.NewConfig()
	cfg.Set(workload.CfgWindowMillis, 1000)
	cluster.Env.Set(workload.EnvStats, stats)
	cluster.Env.Set(workload.EnvConfig, cfg)

	// Continuous event production.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-ticker.C:
				gen.Produce(events, 200, now)
			}
		}
	}()

	topo, err := workload.YahooTopology("yahoo-ads", 1, workload.LogicFilterView)
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Submit(topo, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("pipeline: kafka -> parse -> filter(view) -> projection -> join -> aggregate")

	rate := func() float64 {
		before := stats.Counter("yahoo.agg.total").Value()
		time.Sleep(2 * time.Second)
		return float64(stats.Counter("yahoo.agg.total").Value()-before) / 2
	}
	time.Sleep(time.Second)
	before := rate()
	fmt.Printf("aggregating %.0f events/s with the view-only filter\n", before)

	fmt.Println("hot-swapping filter logic: view -> view+click (no restart)...")
	if err := cluster.Manager.SwapLogic("yahoo-ads", "filter", workload.LogicFilterViewClick); err != nil {
		log.Fatal(err)
	}
	if err := cluster.Manager.WaitReady("yahoo-ads", 10*time.Second); err != nil {
		log.Fatal(err)
	}
	time.Sleep(time.Second)
	after := rate()
	fmt.Printf("aggregating %.0f events/s with the view+click filter (x%.2f, expect ~2)\n",
		after, after/max(before, 1))
	fmt.Printf("campaign windows stored: %d\n", len(store.Keys("window:")))

	// The Fig 14 series: the aggregation rate in each second of the run.
	fmt.Print("agg events/s, per second:")
	for _, v := range stats.Rates("agg/") {
		fmt.Printf(" %.0f", v)
	}
	fmt.Println()
}
