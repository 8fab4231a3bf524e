#!/bin/sh
# Benchmark artifacts for CI:
#   BENCH_rescale.json   — managed stable rescale end to end (pause time +
#                          throughput dip across the rescale).
#   BENCH_dataplane.json — data-plane fast path (the 1/64/1k/10k-rule
#                          forwarding curve through the microflow cache,
#                          broadcast fan-out, codec and emit→recv allocs).
#   BENCH_failover.json  — replicated control-plane failover (detection
#                          latency, rules reconciled, frames dropped —
#                          target 0).
#   BENCH_qos.json       — multi-tenant QoS (guaranteed-tenant p99 under a
#                          best-effort flood, meter policing, and the
#                          zero-alloc QoS fast path).
# Extra arguments are passed to `go test`.
set -eux
cd "$(dirname "$0")/.."
BENCH_JSON="${BENCH_RESCALE_JSON:-BENCH_rescale.json}" \
	go test -run '^$' -bench '^BenchmarkRescale$' -benchtime 1x "$@" .
test -s "${BENCH_RESCALE_JSON:-BENCH_rescale.json}"
BENCH_JSON="${BENCH_DATAPLANE_JSON:-BENCH_dataplane.json}" \
	go test -run '^$' -bench '^BenchmarkDataplane$' -benchtime 1x "$@" .
test -s "${BENCH_DATAPLANE_JSON:-BENCH_dataplane.json}"
BENCH_JSON="${BENCH_FAILOVER_JSON:-BENCH_failover.json}" \
	go test -run '^$' -bench '^BenchmarkFailover$' -benchtime 1x "$@" .
test -s "${BENCH_FAILOVER_JSON:-BENCH_failover.json}"
BENCH_JSON="${BENCH_QOS_JSON:-BENCH_qos.json}" \
	go test -run '^$' -bench '^BenchmarkQoS$' -benchtime 1x "$@" .
test -s "${BENCH_QOS_JSON:-BENCH_qos.json}"
