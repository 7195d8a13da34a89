package main

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct {
	Name, Unit string
}

// endToEndMetrics are reported by every untraced run, on every
// workload. Per workload:
//
//	setup_s      apps: cluster and transport construction, median per solve;
//	             gateway: gateway.New, listen, dial and every join, median per bring-up
//	time_ms      apps: geometric mean over the five apps of each app's median
//	             §5.1 time (per step for em3d, barnes-hut, water; per solve for bsc, tsp);
//	             gateway: closed-loop ping-pong op latency, median over rounds
//	rate_per_s   apps: geometric mean over the apps of solves per second of the
//	             app's own wall time, set-up and warm-up included;
//	             gateway: adds per CPU-second, closed loop
//	rss_peak_mb  peak resident memory of the benchmark process
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"time_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayerMetrics are reported by every traced run; a layer the
// workload does not reach reads zero. Apps workloads report per solve
// pass (one solve of each app), the gateway per op, unless the name
// says otherwise.
var perLayerMetrics = []metricSpec{
	{"apps.compute_ms", "ms"},
	{"apps.warmup_ms", "ms"},
	{"apps.em3d_step_ms", "ms"},
	{"apps.barnes_step_ms", "ms"},
	{"apps.water_step_ms", "ms"},
	{"apps.bsc_solve_ms", "ms"},
	{"apps.tsp_solve_ms", "ms"},
	{"core.bracket_ms", "ms"},
	{"core.bracket_ns_p50", "ns"},
	{"core.bracket_ns_p99", "ns"},
	{"core.map_ms", "ms"},
	{"core.fast_hit_ratio", "ratio"},
	{"core.remote_misses", "count"},
	{"core.sync_ms", "ms"},
	{"core.coll_ms", "ms"},
	{"core.space_ms", "ms"},
	{"adapt.switches", "count"},
	{"adapt.rollbacks", "count"},
	{"adapt.migrations", "count"},
	{"proto.msgs", "count"},
	{"proto.bytes", "B"},
	{"coll.hops_per_round", "count"},
	{"coll.agg_regions_per_frame", "count"},
	{"tcpnet.msgs_per_flush", "count"},
	{"tcpnet.send_queue_stalls", "count"},
	{"tcpnet.retransmits", "count"},
	{"gateway.frames_out_per_add", "count"},
	{"gateway.send_queue_drops", "count"},
	{"gateway.slow_clients", "count"},
	{"gateway.ops_dropped", "count"},
	{"gateway.send_queue_hwm", "count"},
	{"gateway.op_queue_hwm", "count"},
	{"gateway.fanout_skew_ms_p99", "ms"},
	{"gateway.client_send_us_p50", "us"},
	{"gateway.lat_p50_ms", "ms"},
	{"gateway.lat_p99_ms", "ms"},
	{"gateway.rate_max", "1/s"},
	{"gateway.overload_fail_ratio", "ratio"},
	{"loadgen.late_ms_p99", "ms"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.write_syscalls_per_op", "count"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.fail_ratio", "ratio"},
}
