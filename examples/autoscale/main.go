// Auto scaling (§4, Fig 11): an overloaded splitter's queue grows; the
// auto-scaler app sees the worker statistics it asks for and adds splitter
// instances through the streaming manager before the worker runs out of
// memory.
//
//	go run ./examples/autoscale
package main

import (
	"fmt"
	"log"
	"time"

	"typhoon"
	"typhoon/internal/workload"
)

func main() {
	cluster, err := typhoon.NewCluster(typhoon.Config{Hosts: []string{"h1", "h2"}})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	stats := workload.NewStats(time.Second)
	cfg := workload.NewConfig()
	cfg.Set(workload.CfgWorkNanos, 200_000) // 200µs per tuple: one splitter saturates
	cluster.Env.Set(workload.EnvStats, stats)
	cluster.Env.Set(workload.EnvConfig, cfg)

	scaler := typhoon.NewAutoScaler()
	scaler.AddPolicy(typhoon.AutoScalePolicy{
		Topo: "overload", Node: "split",
		ScaleUpQueue: 100, Max: 4, Cooldown: 2 * time.Second,
	})
	cluster.Controller.AddApp(scaler)

	b := typhoon.NewTopology("overload", 1)
	b.Source("src", workload.LogicSentenceSource, 1)
	b.Node("split", workload.LogicSplitter, 1).ShuffleFrom("src")
	b.Node("sink", workload.LogicSink, 1).ShuffleFrom("split")
	topo, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Submit(topo, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("running with 1 splitter under saturating load...")

	for i := 0; i < 10; i++ {
		time.Sleep(time.Second)
		splitters := len(cluster.WorkersOf("overload", "split"))
		var queue int
		for _, w := range cluster.WorkersOf("overload", "split") {
			queue += w.StatsSnapshot().QueueLen
		}
		fmt.Printf("t=%2ds splitters=%d total-queue=%-6d scale-ups=%d\n",
			i+1, splitters, queue, scaler.ScaleUps())
		if scaler.ScaleUps() >= 2 {
			break
		}
	}
	fmt.Printf("final splitter count: %d\n", len(cluster.WorkersOf("overload", "split")))
}
