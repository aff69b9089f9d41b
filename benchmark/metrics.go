package main

// metric declares one number the benchmark prints. BENCHMARK.json
// carries the same declarations (a test holds the two together); the
// definitions are in README.md.
type metric struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Every one is reported on every workload. The bounds are the
// widest the benchmark contract permits: on the 2-vCPU reference machine
// identical runs of the CPU-bound workloads spread by up to 12 % between
// quartiles (README.md, Calibration), and a bound has to stay clear of
// that.
var endToEnd = []metric{
	{"tput_tx_s", "tx/s", "higher", 0.25},
	{"lat_mean_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced pass: tracer stages, loadgen counters and
// registry samples of a traced loadgen run (S in the README) and the
// ledger's spans, counts and probes (L). A metric of a layer that does
// not run on a workload reads 0 there.
var perLayer = []metric{
	{"gtpcc.next_ns", "ns", "lower", 0},
	{"gtpcc.encode_ns", "ns", "lower", 0},

	{"codec.encode_ns_per_env", "ns", "lower", 0},
	{"codec.decode_ns_per_env", "ns", "lower", 0},
	{"codec.bytes_per_env", "B", "lower", 0},
	{"codec.bytes_per_tx", "B", "lower", 0},

	{"transport.envs_per_tx", "count", "lower", 0},
	{"transport.batches_per_tx", "count", "lower", 0},
	{"transport.stage_ingress_mean_ns", "ns", "lower", 0},
	{"transport.stage_reply_mean_ns", "ns", "lower", 0},
	{"transport.tcp_rtt_1_us", "us", "lower", 0},
	{"transport.tcp_rtt_64_us", "us", "lower", 0},
	{"transport.inmem_hop_ns", "ns", "lower", 0},

	{"runtime.stage_queue_wait_mean_ns", "ns", "lower", 0},
	{"runtime.stage_queue_wait_p99_ns", "ns", "lower", 0},
	{"runtime.stage_flush_wait_mean_ns", "ns", "lower", 0},
	{"runtime.avg_batch", "count", "higher", 0},
	{"runtime.timer_flush_frac", "fraction", "lower", 0},
	{"runtime.queue_depth_max", "count", "lower", 0},
	{"runtime.backpressure_ns_per_tx", "ns", "lower", 0},

	{"core.self_ns_per_tx", "ns", "lower", 0},
	{"core.steps_per_tx", "count", "lower", 0},
	{"core.envs_per_tx", "count", "lower", 0},
	{"core.hist_nodes_per_delta", "count", "lower", 0},
	{"core.nondest_envs", "count", "lower", 0},
	{"core.stage_ordering_mean_ns", "ns", "lower", 0},

	{"skeen.self_ns_per_tx", "ns", "lower", 0},
	{"skeen.envs_per_tx", "count", "lower", 0},
	{"hierarchical.self_ns_per_tx", "ns", "lower", 0},
	{"hierarchical.envs_per_tx", "count", "lower", 0},
	{"hierarchical.overhead_frac", "fraction", "lower", 0},

	{"history.merge_ns_per_delta", "ns", "lower", 0},
	{"history.prune_ns_per_flush", "ns", "lower", 0},
	{"history.len_max", "count", "lower", 0},

	{"store.apply_self_ns_per_tx", "ns", "lower", 0},
	{"store.stage_execute_mean_ns", "ns", "lower", 0},
	{"store.read_ns", "ns", "lower", 0},
	{"store.read_p50_ns", "ns", "lower", 0},
	{"store.read_p99_ns", "ns", "lower", 0},
	{"store.feed_ns_per_delivery", "ns", "lower", 0},
	{"store.lease_refusal_frac", "fraction", "lower", 0},
	{"store.watermark_lag_max", "count", "lower", 0},
	{"store.snapshot_encode_ns", "ns", "lower", 0},
	{"store.snapshot_bytes", "B", "lower", 0},

	{"durable.append_self_ns_per_tx", "ns", "lower", 0},
	{"durable.fsyncs_per_tx", "count", "lower", 0},
	{"durable.fsync_mean_ns", "ns", "lower", 0},
	{"durable.fsync_p99_ns", "ns", "lower", 0},
	{"durable.snapshot_mean_ns", "ns", "lower", 0},
	{"durable.snapshots_per_ktx", "count", "lower", 0},
	{"durable.wal_bytes_per_tx", "B", "lower", 0},
	{"durable.recovery_mean_us", "us", "lower", 0},
	{"durable.replay_max_envs", "count", "lower", 0},

	{"paxos.decide_ns", "ns", "lower", 0},
	{"paxos.msgs_per_decide", "count", "lower", 0},
	{"smr.wall_ns_per_tx", "ns", "lower", 0},
	{"smr.engine_share", "fraction", "lower", 0},

	{"loadgen.lat_p50_us", "us", "lower", 0},
	{"loadgen.lat_p99_us", "us", "lower", 0},
	{"loadgen.lat_p999_us", "us", "lower", 0},
	{"loadgen.read_tput_tx_s", "tx/s", "higher", 0},
	{"loadgen.gen_lag_frac", "fraction", "lower", 0},
	{"loadgen.fail_frac", "fraction", "lower", 0},

	{"proc.cpu_us_per_tx", "us", "lower", 0},
	{"proc.alloc_b_per_tx", "B", "lower", 0},
	{"proc.allocs_per_tx", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.rss_peak_mb", "MB", "lower", 0},
	{"trace.overhead_frac", "fraction", "lower", 0},
	{"ledger.coverage_frac", "fraction", "higher", 0},
}

// values holds one pass's metrics by name.
type values map[string]float64

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
