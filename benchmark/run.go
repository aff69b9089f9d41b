package main

import (
	"fmt"
	"os"
	"time"

	"flexcast/internal/durable"
	"flexcast/internal/loadgen"
	"flexcast/internal/metrics"
	"flexcast/internal/telemetry"
)

// options sizes one invocation.
type options struct {
	seed int64
	// window is the untraced measurement window; the traced pass splits
	// it between its traced and its untraced comparison run.
	window time.Duration
	// warmup precedes the untraced window, tracedWarmup each of the traced
	// pass's two windows; smrWarmupOps is smr-sim's untimed prefix.
	warmup, tracedWarmup time.Duration
	smrWarmupOps         int
	// ledgerTxs, probeRounds and paxosDecides size the ledger and its
	// probes.
	ledgerTxs, probeRounds, paxosDecides int
	// quick marks a smoke run: windows too short for the statistical
	// output checks (abort rate, read balance), which are then skipped.
	quick bool
	// tmp is the directory under the checkout where durable workloads
	// persist.
	tmp string
}

// fullOptions is a run of record: 2 s warm-up and the requested window
// untraced; 1 s warm-up and half the window for each of the traced
// pass's two runs; a 40 000-transaction ledger.
func fullOptions(seed int64, window time.Duration) options {
	return options{
		seed:         seed,
		window:       window,
		warmup:       2 * time.Second,
		tracedWarmup: time.Second,
		smrWarmupOps: 20000,
		ledgerTxs:    40000,
		probeRounds:  400,
		paxosDecides: 20000,
	}
}

// quickOptions is the smoke run: 1 s windows, a 2000-transaction ledger,
// no statistical checks and nothing to hold against a bound.
func quickOptions(seed int64) options {
	o := fullOptions(seed, time.Second)
	o.quick = true
	o.warmup, o.tracedWarmup = 500*time.Millisecond, 250*time.Millisecond
	o.smrWarmupOps, o.ledgerTxs, o.paxosDecides = 2000, 2000, 2000
	return o
}

// result is one pass over one workload.
type result struct {
	metrics   values
	attempted uint64
	failed    uint64
	// failures names every output check that failed; a failed check makes
	// the whole pass a failed run.
	failures []string
	// notes are the lines printed beside the metrics: sample counts, the
	// injected delay, what the numbers rest on.
	notes []string
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.failures) == 0 }

// runLoad is loadgen.Run with one allowance: a deployment that could not
// be set up is set up again. loadgen's TCP deployment reserves a loopback
// port per node by listening on :0, closing, and listening again on the
// recorded port, and now and then the kernel hands the same port out
// twice or to someone else in between. A run that fails before its
// warm-up has elapsed never measured anything and is retried; a run that
// got further is never retried, whatever it returns.
func runLoad(cfg loadgen.Config) (*loadgen.Result, error) {
	for attempt := 1; ; attempt++ {
		start := time.Now()
		res, err := loadgen.Run(cfg)
		if err == nil || attempt == 5 || time.Since(start) >= cfg.Warmup {
			return res, err
		}
		fmt.Fprintf(os.Stderr, "benchmark: deployment failed before the warm-up ended, setting up again: %v\n", err)
	}
}

// runUntraced measures the end-to-end metrics: tracing off, one run,
// set-up time being everything of the invocation outside the window.
func runUntraced(w *workload, o options, started time.Time) *result {
	r := &result{metrics: values{}}
	window := o.window
	if w.sim {
		window = untracedSMR(r, o)
	} else {
		cfg := w.loadConfig(o.seed, o.warmup, o.window, false, o.tmp)
		res, err := runLoad(cfg)
		if err != nil {
			r.fail("loadgen.Run: %v", err)
		} else {
			r.attempted = res.Issued + res.Shed
			r.failed = res.Shed
			r.metrics["tput_tx_s"] = res.Throughput
			r.metrics["lat_mean_us"] = res.Latency.Mean
			r.note("latency over %d write transactions (p50 %d us, p99 %d us: bucket upper bounds, ungated)",
				res.Latency.Count, res.Latency.P50, res.Latency.P99)
			checkLoadgen(r, w, cfg, res, o)
		}
	}
	r.metrics["setup_s"] = time.Since(started).Seconds() - window.Seconds()
	return r
}

// untracedSMR returns the wall time its fixed work took, which stands in
// for the window.
func untracedSMR(r *result, o options) time.Duration {
	c, err := newPublicSMRCluster()
	if err != nil {
		r.fail("smr-sim: %v", err)
		return o.window
	}
	defer c.Close()
	run, err := driveSMR(c, newSMRStream(o.seed), o.smrWarmupOps, smrTimedOps(o.window))
	if err != nil {
		r.fail("%v", err)
		return o.window
	}
	r.attempted = run.ops
	r.metrics["tput_tx_s"] = float64(run.ops) / run.wall.Seconds()
	// Operations are submitted in waves and a wave is complete when its
	// last operation is delivered, so an operation's latency is its
	// wave's wall time.
	var sum int64
	for _, ns := range run.waveNs {
		sum += ns
	}
	r.metrics["lat_mean_us"] = float64(sum) / float64(len(run.waveNs)) / 1e3
	r.note("%d operations in %d waves of %d over %.2fs wall; latency is wall time per wave", run.ops, run.waves, smrWave, run.wall.Seconds())
	return run.wall
}

// runTraced measures the per-layer metrics: a traced loadgen run with
// the registry sampled, an untraced run of the same length for the
// tracing overhead, then the ledger and its probes.
func runTraced(w *workload, o options) *result {
	r := &result{metrics: values{}}
	for _, m := range perLayer {
		r.metrics[m.name] = 0
	}
	half := o.window / 2
	if w.sim {
		tracedSMR(r, o, half)
		return r
	}

	cfg := w.loadConfig(o.seed, o.tracedWarmup, half, true, o.tmp)
	fsync0, snap0 := histState(durable.FsyncHist()), histState(durable.SnapshotHist())
	smp := startSampler(half)
	res, err := runLoad(cfg)
	ws, sampled := smp.finish()
	if err != nil {
		r.fail("traced loadgen.Run: %v", err)
		return r
	}
	r.attempted = res.Issued + res.Shed
	r.failed = res.Shed
	checkLoadgen(r, w, cfg, res, o)
	tracedLoadgenMetrics(r, w, cfg, res)
	if w.durable {
		durableHistMetrics(r, fsync0, snap0)
	}
	switch {
	case sampled:
		sampledMetrics(r, ws)
	case o.quick:
		r.note("sampler: window too short to bracket; registry and process metrics read 0")
	default:
		r.fail("sampler: the run ended before a whole window was observed")
	}

	plain := w.loadConfig(o.seed, o.tracedWarmup, half, false, o.tmp)
	pres, err := runLoad(plain)
	if err != nil {
		r.fail("untraced comparison run: %v", err)
	} else {
		r.metrics["trace.overhead_frac"] = 1 - ratio(res.Throughput, pres.Throughput)
		r.note("tracing overhead from one traced and one untraced %.1fs window (%.0f vs %.0f tx/s): single pair, noise of a few %%", half.Seconds(), res.Throughput, pres.Throughput)
	}

	ledgerMetrics(r, w, o)
	return r
}

type histCount struct {
	n   uint64
	sum float64
}

func histState(h *metrics.Histogram) histCount {
	n := h.Count()
	if n == 0 {
		return histCount{}
	}
	return histCount{n: n, sum: h.Mean() * float64(n)}
}

func stageOf(rep *telemetry.StagesReport, name string) metrics.NsSummary {
	if rep != nil {
		for _, s := range rep.Stages {
			if s.Stage == name {
				return s.NsSummary
			}
		}
	}
	return metrics.NsSummary{}
}

// tracedLoadgenMetrics takes the S metrics that come straight from the
// traced run's Result.
func tracedLoadgenMetrics(r *result, w *workload, cfg loadgen.Config, res *loadgen.Result) {
	m := r.metrics
	st := res.Stages
	m["transport.stage_ingress_mean_ns"] = stageOf(st, "ingress").Mean
	m["transport.stage_reply_mean_ns"] = stageOf(st, "reply").Mean
	m["runtime.stage_queue_wait_mean_ns"] = stageOf(st, "queue_wait").Mean
	m["runtime.stage_queue_wait_p99_ns"] = float64(stageOf(st, "queue_wait").P99)
	m["runtime.stage_flush_wait_mean_ns"] = stageOf(st, "flush_wait").Mean
	m["core.stage_ordering_mean_ns"] = stageOf(st, "ordering").Mean
	m["store.stage_execute_mean_ns"] = stageOf(st, "execute").Mean
	m["runtime.avg_batch"] = res.AvgBatch
	m["loadgen.lat_p50_us"] = float64(res.Latency.P50)
	m["loadgen.lat_p99_us"] = float64(res.Latency.P99)
	m["loadgen.lat_p999_us"] = float64(res.Latency.P999)
	m["loadgen.fail_frac"] = ratio(float64(r.failed), float64(r.attempted))
	if st != nil {
		r.note("stages from %d traced transactions (1 in %d)", st.Records, st.SampleEvery)
	}
	m["loadgen.gen_lag_frac"] = genLag(cfg, res)
	if w.reads {
		m["loadgen.read_tput_tx_s"] = res.ReadThroughput
		if res.ReadLatencyNs != nil {
			m["store.read_p50_ns"] = float64(res.ReadLatencyNs.P50)
			m["store.read_p99_ns"] = float64(res.ReadLatencyNs.P99)
			r.note("read latency over %d fast-path reads", res.ReadLatencyNs.Count)
		}
		m["store.lease_refusal_frac"] = ratio(float64(res.LeaseRefusals), float64(res.Reads+res.LeaseRefusals))
	}
	if d := res.Durable; d != nil {
		m["durable.recovery_mean_us"] = d.RecoveryMeanUs
		m["durable.replay_max_envs"] = float64(d.MaxReplayedEnvelopes)
	}
}

// durableHistMetrics reads the durable layer's process-wide histograms
// as deltas over the traced run (the p99 is over the whole process so
// far, which in a traced invocation is that run alone).
func durableHistMetrics(r *result, fsync0, snap0 histCount) {
	f, s := histState(durable.FsyncHist()), histState(durable.SnapshotHist())
	r.metrics["durable.fsync_mean_ns"] = ratio(f.sum-fsync0.sum, float64(f.n-fsync0.n))
	r.metrics["durable.fsync_p99_ns"] = float64(durable.FsyncHist().Percentile(99))
	r.metrics["durable.snapshot_mean_ns"] = ratio(s.sum-snap0.sum, float64(s.n-snap0.n))
	r.note("durable timings over %d fsyncs and %d snapshots", f.n-fsync0.n, s.n-snap0.n)
}

// sampledMetrics takes the S metrics that need the window bracketed:
// deltas of registry counters and of process resource use between two
// samples inside the window, per write completed between the same two
// samples.
func sampledMetrics(r *result, ws windowSample) {
	m := r.metrics
	c := ws.counters
	tx := float64(c["completed"])
	batches := float64(c["batch_size_flushes"] + c["batch_chunk_flushes"] + c["batch_timer_flushes"])
	m["transport.batches_per_tx"] = ratio(batches, tx)
	// The registry publishes sends by flush reason but envelopes only as
	// the running mean batch; over a window that started after a warm-up
	// the two means agree closely.
	m["transport.envs_per_tx"] = ratio(batches*m["runtime.avg_batch"], tx)
	m["runtime.timer_flush_frac"] = ratio(float64(c["batch_timer_flushes"]), batches)
	m["runtime.backpressure_ns_per_tx"] = ratio(float64(c["backpressure_stall_ns"]), tx)
	m["runtime.queue_depth_max"] = ws.gaugeMax["queue_depth_max"]
	m["store.watermark_lag_max"] = ws.gaugeMax["watermark_lag_max"]
	procMetrics(m, ws.proc, tx)
	r.note("process and registry deltas over %d samples inside the window, %d writes", ws.samples, c["completed"])
}

func procMetrics(m values, p procCounters, tx float64) {
	m["proc.cpu_us_per_tx"] = ratio(float64(p.cpuNs)/1e3, tx)
	m["proc.alloc_b_per_tx"] = ratio(float64(p.allocBytes), tx)
	m["proc.allocs_per_tx"] = ratio(float64(p.allocs), tx)
	m["proc.gc_pause_ms"] = float64(p.gcPauseNs) / 1e6
	m["proc.rss_peak_mb"] = float64(p.maxRSSKB) / 1024
}

// ledgerMetrics runs the workload's ledger, the two baseline protocols
// on the global-tcp stream, and the probes of the layers that run here.
func ledgerMetrics(r *result, w *workload, o options) {
	m := r.metrics
	dir, err := os.MkdirTemp(o.tmp, "ledger-")
	if err != nil {
		r.fail("ledger: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	lr, err := runLedger(w.ledgerConfig(o.seed, o.ledgerTxs, dir))
	if err != nil {
		r.fail("%v", err)
		return
	}
	tx := float64(lr.txs)
	L := &lr.layers
	m["gtpcc.next_ns"] = ratio(float64(L[layGtpccNext].selfNs), float64(L[layGtpccNext].calls))
	m["gtpcc.encode_ns"] = ratio(float64(L[layGtpccEncode].selfNs), float64(L[layGtpccEncode].calls))
	m["core.self_ns_per_tx"] = float64(L[layEngine].selfNs) / tx
	m["core.steps_per_tx"] = float64(lr.steps) / tx
	m["core.envs_per_tx"] = float64(lr.envsIn) / tx
	m["core.hist_nodes_per_delta"] = ratio(float64(lr.histNodes), float64(lr.deltas))
	m["core.nondest_envs"] = float64(lr.nondestPayload)
	if lr.nondestPayload != 0 {
		r.fail("genuineness: %d payload envelopes reached groups outside their message's destinations", lr.nondestPayload)
	}
	m["history.merge_ns_per_delta"] = ratio(float64(L[layHistoryMerge].selfNs), float64(L[layHistoryMerge].calls))
	m["history.prune_ns_per_flush"] = ratio(float64(L[layHistoryPrune].selfNs), float64(L[layHistoryPrune].calls))
	m["history.len_max"] = float64(lr.histLenMax)
	m["store.apply_self_ns_per_tx"] = float64(L[layStore].selfNs) / tx
	m["store.snapshot_encode_ns"] = ratio(float64(L[layStoreSnapshot].selfNs), float64(lr.snapshots))
	m["store.snapshot_bytes"] = ratio(float64(lr.snapshotBytes), float64(lr.snapshots))
	if w.reads {
		m["store.read_ns"] = ratio(float64(L[layStoreRead].selfNs), float64(L[layStoreRead].calls))
		m["store.feed_ns_per_delivery"] = ratio(float64(L[layStoreFeed].selfNs), float64(L[layStoreFeed].calls))
	}
	if w.codec {
		m["codec.encode_ns_per_env"] = ratio(float64(L[layCodecEncode].selfNs), float64(lr.frameEnvs))
		m["codec.decode_ns_per_env"] = ratio(float64(L[layCodecDecode].selfNs), float64(lr.frameEnvs))
		m["codec.bytes_per_env"] = ratio(float64(lr.frameBytes), float64(lr.frameEnvs))
		m["codec.bytes_per_tx"] = float64(lr.frameBytes) / tx
	}
	if w.durable {
		m["durable.append_self_ns_per_tx"] = float64(L[layDurable].selfNs) / tx
		m["durable.fsyncs_per_tx"] = float64(lr.fsyncs) / tx
		m["durable.snapshots_per_ktx"] = float64(lr.durableSnapshots) / tx * 1000
		// Each batch step is one log record: the frame plus the 8-byte
		// record header.
		m["durable.wal_bytes_per_tx"] = float64(L[layDurable].bytes+8*lr.steps) / tx
	}
	var spanNs int64
	for _, t := range L {
		spanNs += t.selfNs
	}
	m["ledger.coverage_frac"] = ratio(float64(spanNs)/tx/1e3, m["proc.cpu_us_per_tx"])
	r.note("ledger: %d transactions, %d reads, %d spans, %d flushes, %.2fs", lr.txs, lr.reads, lr.spans, lr.flushes, float64(lr.wallNs)/1e9)

	if w.codec {
		baselineMetrics(r, w, o, "skeen")
		baselineMetrics(r, w, o, "hierarchical")
		if rtt1, rtt64, err := tcpEchoRTT(o.probeRounds); err != nil {
			r.fail("%v", err)
		} else {
			m["transport.tcp_rtt_1_us"], m["transport.tcp_rtt_64_us"] = rtt1/1e3, rtt64/1e3
		}
	} else if hop, err := inmemHopNs(o.probeRounds); err != nil {
		r.fail("%v", err)
	} else {
		m["transport.inmem_hop_ns"] = hop
	}
}

// baselineMetrics re-runs the workload's stream under one of the two
// baseline protocols (a quarter of the transactions: only self time and
// envelope counts are reported, both per transaction).
func baselineMetrics(r *result, w *workload, o options, protocol string) {
	cfg := w.ledgerConfig(o.seed, o.ledgerTxs/4, "")
	cfg.protocol, cfg.codec = protocol, false
	lr, err := runLedger(cfg)
	if err != nil {
		r.fail("%s ledger: %v", protocol, err)
		return
	}
	tx := float64(lr.txs)
	r.metrics[protocol+".self_ns_per_tx"] = float64(lr.layers[layEngine].selfNs) / tx
	r.metrics[protocol+".envs_per_tx"] = float64(lr.envsIn) / tx
	if protocol == "hierarchical" {
		r.metrics["hierarchical.overhead_frac"] = ratio(float64(lr.nondestPayload), float64(lr.payloadIn))
	}
}

// tracedSMR is smr-sim's traced pass: the public cluster for half the
// window, then the same assembly with every replica's engine decorated,
// and the benchmark-routed Paxos trio.
func tracedSMR(r *result, o options, half time.Duration) {
	m := r.metrics
	plain, err := func() (*smrRun, error) {
		pub, err := newPublicSMRCluster()
		if err != nil {
			return nil, err
		}
		defer pub.Close()
		return driveSMR(pub, newSMRStream(o.seed), o.smrWarmupOps, smrTimedOps(half))
	}()
	if err != nil {
		r.fail("smr-sim: %v", err)
		return
	}
	rec := newRecorder(1 << 20)
	tc, err := newTracedCluster(rec)
	if err != nil {
		r.fail("smr-sim: %v", err)
		return
	}
	defer tc.Close()
	before := readProc()
	traced, err := driveSMR(tc, newSMRStream(o.seed), o.smrWarmupOps, smrTimedOps(half))
	if err != nil {
		r.fail("%v", err)
		return
	}
	// Resource use covers warm-up and window; so do the operations.
	ops := float64(traced.ops) + float64(o.smrWarmupOps)
	procMetrics(m, readProc().since(before), ops)
	r.attempted = traced.ops

	var engineNs int64
	for i := range rec.spans {
		if s := &rec.spans[i]; s.parent == noParent && s.start >= int64(traced.setupEnd.Sub(rec.base)) {
			engineNs += s.end - s.start
		}
	}
	m["smr.wall_ns_per_tx"] = float64(traced.wall.Nanoseconds()) / float64(traced.ops)
	m["smr.engine_share"] = ratio(float64(engineNs), float64(traced.wall.Nanoseconds()))
	plainTput := float64(plain.ops) / plain.wall.Seconds()
	tracedTput := float64(traced.ops) / traced.wall.Seconds()
	m["trace.overhead_frac"] = 1 - ratio(tracedTput, plainTput)
	r.note("smr-sim: %d operations decorated (%.0f/s) vs %d undecorated (%.0f/s), %d engine spans", traced.ops, tracedTput, plain.ops, plainTput, len(rec.spans))

	if decideNs, msgs, err := paxosTrio(o.seed, o.paxosDecides); err != nil {
		r.fail("%v", err)
	} else {
		m["paxos.decide_ns"], m["paxos.msgs_per_decide"] = decideNs, msgs
	}
}
