// Command typhoon-cluster starts an emulated Typhoon cluster and optionally
// submits a demo word-count topology. Its one operator endpoint (-metrics)
// serves the versioned /api/v1 surface typhoon-ctl inspects and reconfigures
// the cluster through from another process, the metric registry in
// Prometheus text format, the live top table, sampled tuple-path traces,
// and net/http/pprof.
//
//	typhoon-cluster -hosts 3 -demo
//	typhoon-ctl list
//	typhoon-ctl top
//	curl http://127.0.0.1:9090/metrics
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"typhoon"
	"typhoon/internal/workload"
)

func main() {
	var (
		hosts      = flag.Int("hosts", 3, "number of emulated compute hosts")
		mode       = flag.String("mode", "typhoon", "data plane: typhoon or storm")
		demo       = flag.Bool("demo", false, "submit a demo word-count topology")
		metrics    = flag.String("metrics", "127.0.0.1:9090", "operator API and observability HTTP listen address (empty disables)")
		traceEvery = flag.Int("trace-every", 0, "sample one in N frames for tuple-path tracing (0 = default, negative disables)")
		ctls       = flag.Int("controllers", 1, "replicated SDN controller instances (typhoon mode; 1 = a set of one)")
		qos        = flag.Bool("qos", false, "enable multi-tenant QoS: meters, weighted egress queues, bandwidth allocator")
		linkBps    = flag.Uint64("link-bps", 0, "QoS per-host link capacity in bytes/s (0 = allocator default)")
	)
	flag.Parse()

	names := make([]string, *hosts)
	for i := range names {
		names[i] = fmt.Sprintf("h%d", i+1)
	}
	m := typhoon.ModeTyphoon
	if *mode == "storm" {
		m = typhoon.ModeStorm
	}
	cluster, err := typhoon.NewCluster(typhoon.Config{
		Mode: m, Hosts: names, TraceEvery: *traceEvery, Controllers: *ctls,
		QoS: typhoon.QoSConfig{Enable: *qos, LinkCapacityBps: *linkBps},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	if *ctls > 1 {
		fmt.Printf("cluster up: %d hosts (%s mode, %d replicated controllers)\n", *hosts, *mode, *ctls)
	} else {
		fmt.Printf("cluster up: %d hosts (%s mode)\n", *hosts, *mode)
	}

	if *metrics != "" {
		obsSrv := &http.Server{Addr: *metrics, Handler: cluster.ObserveHandler()}
		go func() {
			if err := obsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("observability endpoint: %v", err)
			}
		}()
		defer obsSrv.Close()
		fmt.Printf("observability at http://%s/metrics (API: /api/v1/{topologies,top,traces,...}, pprof: /debug/pprof/)\n", *metrics)
	}

	stats := workload.NewStats(time.Second)
	cluster.Env.Set(workload.EnvStats, stats)
	cluster.Env.Set(workload.EnvConfig, workload.NewConfig())

	if *demo {
		b := typhoon.NewTopology("wordcount", 1)
		if *qos {
			b.QoS(typhoon.QoSGuaranteed, 0)
		}
		b.Source("input", workload.LogicSentenceSource, 1)
		b.Node("split", workload.LogicSplitter, 2).ShuffleFrom("input")
		b.Node("count", workload.LogicCounter, 2).FieldsFrom("split", 0).Stateful()
		topo, err := b.Build()
		if err != nil {
			log.Fatal(err)
		}
		if err := cluster.Submit(topo, 15*time.Second); err != nil {
			log.Fatal(err)
		}
		fmt.Println("demo topology 'wordcount' running")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			fmt.Println("shutting down")
			return
		case <-ticker.C:
			if *demo {
				var n uint64
				for _, w := range cluster.WorkersOf("wordcount", "count") {
					n += w.StatsSnapshot().Processed
				}
				fmt.Printf("wordcount: %d words counted\n", n)
			}
		}
	}
}
