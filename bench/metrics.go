package main

// metricDef names one metric the benchmark prints. BENCHMARK.json lists
// the same names, units, directions and bounds; bench_test.go holds the
// two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // allowed worsening as a share of the baseline median; 0 = not gated
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. The first seven are in BENCHMARK.json. The last two are
// printed and checked by this program only: the contract wants metrics
// that are never zero and exist on every workload, and failed_ratio is
// zero by design (it reaches the driver as failed/attempted instead)
// while rescale_pause_ms exists on keyed_rescale alone (BENCHMARK.json
// carries it as the per-layer controller.rescale_pause_ms).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sat_tuples_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_tuple_sat", "us", "lower", 0.25},
	{"cpu_us_per_tuple_mid", "us", "lower", 0.25},
	{"lat_p50_ms_mid", "ms", "lower", 0.25},
	{"lat_p50_ms_low", "ms", "lower", 0.20},
	{"lat_p95_ms_low", "ms", "lower", 0.25},
	{"rescale_pause_ms", "ms", "lower", 0.20},
	{"failed_ratio", "ratio", "lower", 0},
}

// contractEndToEnd is how many of endToEnd go into the contract's JSON.
const contractEndToEnd = 7

// perLayer are the single-layer metrics of the traced pass, in the order
// a tuple meets the layers. None is gated.
var perLayer = []metricDef{
	{"tuple.encode_ns_small", "ns", "lower", 0},
	{"tuple.decode_ns_small", "ns", "lower", 0},
	{"tuple.encode_ns_large", "ns", "lower", 0},
	{"tuple.decode_ns_large", "ns", "lower", 0},
	{"tuple.decode_allocs", "count", "lower", 0},
	{"packet.packetize_ns", "ns", "lower", 0},
	{"packet.depacketize_ns", "ns", "lower", 0},
	{"packet.tuples_per_frame_low", "count", "higher", 0},
	{"packet.tuples_per_frame_mid", "count", "higher", 0},
	{"packet.tuples_per_frame_sat", "count", "higher", 0},
	{"ring.enq_deq_ns", "ns", "lower", 0},
	{"ring.handoff_ns", "ns", "lower", 0},
	{"ring.drops_sat", "count", "lower", 0},
	{"switchfabric.fwd_ns_min", "ns", "lower", 0},
	{"switchfabric.fwd_ns_batch", "ns", "lower", 0},
	{"switchfabric.replicate4_ns", "ns", "lower", 0},
	{"switchfabric.flowmod_ns", "ns", "lower", 0},
	{"switchfabric.microflow_hit_ratio_mid", "ratio", "higher", 0},
	{"switchfabric.upcalls_mid", "count", "lower", 0},
	{"switchfabric.drops_sat", "count", "lower", 0},
	{"switchfabric.replicated_mid", "count", "lower", 0},
	{"worker.emit_recv_ns", "ns", "lower", 0},
	{"worker.route_ns_fields", "ns", "lower", 0},
	{"worker.route_ns_shuffle", "ns", "lower", 0},
	{"worker.busy_share_mid", "ratio", "lower", 0},
	{"worker.inqueue_p95_mid", "count", "lower", 0},
	{"worker.idle_cores_low", "cores", "lower", 0},
	{"worker.gen_late_p99_ms_mid", "ms", "lower", 0},
	{"core.tunnel_emit_recv_ns", "ns", "lower", 0},
	{"core.tunnel_frames_mid", "count", "lower", 0},
	{"core.tunnel_bytes_mid", "bytes", "lower", 0},
	{"core.submit_ms", "ms", "lower", 0},
	{"core.allocs_per_tuple_mid", "count", "lower", 0},
	{"core.gc_pause_ms_mid", "ms", "lower", 0},
	{"core.peak_rss_mb", "MiB", "lower", 0},
	{"core.late_ratio_mid", "ratio", "lower", 0},
	{"core.lat_p99_ms_mid", "ms", "lower", 0},
	{"core.lat_p99_ms_low", "ms", "lower", 0},
	{"core.lat_p999_ms_low", "ms", "lower", 0},
	{"ack.execute_ns", "ns", "lower", 0},
	{"ack.frames_per_tuple", "ratio", "lower", 0},
	{"storm.emit_recv_ns", "ns", "lower", 0},
	{"storm.sat_tuples_per_s", "1/s", "higher", 0},
	{"storm.speedup", "ratio", "higher", 0},
	{"controller.rescale_pause_ms", "ms", "lower", 0},
	{"controller.rescale_drain_ms", "ms", "lower", 0},
	{"controller.rescale_keys_migrated", "count", "lower", 0},
	{"controller.rescale_state_bytes", "bytes", "lower", 0},
	{"controller.rules_installed", "count", "lower", 0},
	{"openflow.flowmod_codec_ns", "ns", "lower", 0},
	{"coordinator.put_get_ns", "ns", "lower", 0},
	{"coordinator.watch_fanout_us", "us", "lower", 0},
	{"observe.trace_overhead_pct", "%", "lower", 0},
}
