// Command flexload is the sustained-load benchmark of the batched node
// runtime (internal/runtime): it deploys all groups and client processes
// in one OS process over the in-memory or loopback-TCP transport, drives
// them with open- or closed-loop gTPC-C clients, and reports sustained
// throughput plus exact latency percentiles from the HDR-style histogram
// (internal/metrics). The JSON it emits (BENCH_runtime.json) is the
// repository's performance trajectory.
//
// Usage:
//
//	flexload                                   # closed loop, batching on, in-memory
//	flexload -batch 1                          # the unbatched baseline
//	flexload -compare -out BENCH_runtime.json  # batched vs -batch=1, with speedup
//	flexload -transport tcp -clients 8 -workers 16
//	flexload -rate 20000 -duration 10s         # open loop at 20k tx/s per client
//	flexload -validate BENCH_runtime.json      # schema/sanity check (CI)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"flexcast/internal/loadgen"
	"flexcast/internal/telemetry"
)

func main() {
	// Every benchmark knob is a loadgen.Config field; AddFlags binds
	// them all with the struct's own defaults. Only command concerns
	// (output, A/B companions, telemetry) are declared here.
	cfgp := loadgen.AddFlags(flag.CommandLine)
	var (
		telemetryF = flag.String("telemetry", "", "serve /metrics (JSON) and /debug/pprof on this address mid-run (e.g. 127.0.0.1:8090)")
		ab         = flag.Bool("ab", false, "also run the A/B companions: leader reads, static batching, read mix off, and tracing off (asserts tracing overhead <= 5%)")
		out        = flag.String("out", "", "write the JSON report to this file")
		compare    = flag.Bool("compare", false, "also run the -batch=1 baseline and report the speedup")
		validate   = flag.String("validate", "", "validate an existing report file and exit")
	)
	flag.Parse()

	if *validate != "" {
		rep, err := loadgen.ValidateFile(*validate)
		if err != nil {
			log.Fatalf("flexload: %v", err)
		}
		fmt.Printf("%s: valid (%s, %.0f tx/s, p99 %s)\n", *validate, rep.Schema,
			rep.Results.Throughput, time.Duration(rep.Results.Latency.P99)*time.Microsecond)
		return
	}

	cfg := *cfgp

	if *telemetryF != "" {
		srv, err := telemetry.Serve(*telemetryF, telemetry.Default)
		if err != nil {
			log.Fatalf("flexload: telemetry: %v", err)
		}
		defer srv.Close()
		fmt.Printf("telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}

	res, err := loadgen.Run(cfg)
	if err != nil {
		log.Fatalf("flexload: %v", err)
	}
	printResult(fmt.Sprintf("%s/%s batch=%d read-pct=%.0f", cfg.Transport, cfg.Protocol, cfg.MaxBatch, cfg.ReadPct), res)
	rep := loadgen.NewReport(cfg, res)
	if rep.ReadWriteP50Ratio > 0 {
		fmt.Printf("write p50 / read p50: %.0fx\n", rep.ReadWriteP50Ratio)
	}

	if *compare {
		base := cfg
		base.MaxBatch = 1
		baseRes, err := loadgen.Run(base)
		if err != nil {
			log.Fatalf("flexload: baseline: %v", err)
		}
		printResult(fmt.Sprintf("%s/%s batch=1 (baseline)", cfg.Transport, cfg.Protocol), baseRes)
		rep.WithBaseline(baseRes)
		fmt.Printf("speedup vs unbatched: %.2fx\n", rep.SpeedupVsUnbatched)
	}

	if *ab {
		if cfg.FollowerReads {
			// The follower-reads A/B: identical replicated deployment and
			// write load, reads routed to the one serving node over the
			// transport instead of the clients' local lease-holding
			// replicas.
			leader := cfg
			leader.FollowerReads = false
			vres, err := loadgen.Run(leader)
			if err != nil {
				log.Fatalf("flexload: leader_reads variant: %v", err)
			}
			printResult(fmt.Sprintf("%s/%s batch=%d leader-reads (variant)", cfg.Transport, cfg.Protocol, cfg.MaxBatch), vres)
			rep.WithVariant("leader_reads", vres)
			if vres.ReadThroughput > 0 {
				fmt.Printf("follower-read speedup vs leader reads: %.2fx\n", res.ReadThroughput/vres.ReadThroughput)
			}
		}
		if cfg.Adaptive || cfg.Sessions > 0 {
			// The tail-latency A/B: identical deployment and offered load,
			// with the adaptive batching controller and per-session
			// admission replaced by the static operating point and the
			// legacy process-level outstanding cap. Overdriven, the static
			// side queues its excess (bufferbloat p99); the adaptive side
			// sheds it and keeps the in-flight population small.
			static := cfg
			static.Adaptive = false
			static.Sessions = 0
			vres, err := loadgen.Run(static)
			if err != nil {
				log.Fatalf("flexload: static variant: %v", err)
			}
			printResult(fmt.Sprintf("%s/%s batch=%d static (variant)", cfg.Transport, cfg.Protocol, cfg.MaxBatch), vres)
			rep.WithVariant("static", vres)
			if res.Latency.P99 > 0 {
				fmt.Printf("write p99 static/adaptive: %.2fx  (%dµs -> %dµs)\n",
					float64(vres.Latency.P99)/float64(res.Latency.P99), vres.Latency.P99, res.Latency.P99)
			}
			if res.SLO != nil && vres.SLO != nil && vres.SLO.Goodput > 0 {
				fmt.Printf("goodput adaptive/static: %.2fx  (%.0f vs %.0f tx/s at %.0fms)\n",
					res.SLO.Goodput/vres.SLO.Goodput, res.SLO.Goodput, vres.SLO.Goodput, res.SLO.TargetMs)
			}
		}
		if cfg.ReadPct > 0 {
			noReads := cfg
			noReads.ReadPct = 0
			noReads.ReadWorkers = 0
			if cfg.Rate > 0 {
				// Hold the write offered-load constant: the primary run
				// offers Rate×(1−ReadPct/100) writes per second, so with
				// the read mix off the same write pressure needs a
				// proportionally lower rate — otherwise the variant
				// measures doubled overload, not the read path.
				noReads.Rate = cfg.Rate * float64(100-cfg.ReadPct) / 100
			}
			vres, err := loadgen.Run(noReads)
			if err != nil {
				log.Fatalf("flexload: no_reads variant: %v", err)
			}
			printResult(fmt.Sprintf("%s/%s batch=%d read-pct=0 (variant)", cfg.Transport, cfg.Protocol, cfg.MaxBatch), vres)
			rep.WithVariant("no_reads", vres)
		}
		if cfg.TraceSample > 0 {
			// The tracing A/B: identical run with the tracer disabled. The
			// unsampled hot path is one branch and one modulo, so sampled
			// tracing must stay within run-to-run noise; gate at 5%.
			noTrace := cfg
			noTrace.TraceSample = -1
			vres, err := loadgen.Run(noTrace)
			if err != nil {
				log.Fatalf("flexload: no_trace variant: %v", err)
			}
			printResult(fmt.Sprintf("%s/%s batch=%d trace off (variant)", cfg.Transport, cfg.Protocol, cfg.MaxBatch), vres)
			rep.WithVariant("no_trace", vres)
			if vres.Throughput > 0 {
				overhead := 1 - res.Throughput/vres.Throughput
				fmt.Printf("tracing overhead (1/%d sampling): %.1f%%\n", cfg.TraceSample, overhead*100)
				if overhead > 0.05 {
					log.Fatalf("flexload: tracing overhead %.1f%% exceeds the 5%% budget (traced %.0f tx/s vs untraced %.0f tx/s)",
						overhead*100, res.Throughput, vres.Throughput)
				}
			}
		}
	}

	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			log.Fatalf("flexload: write %s: %v", *out, err)
		}
		if _, err := loadgen.ValidateFile(*out); err != nil {
			log.Fatalf("flexload: self-validation failed: %v", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	_ = os.Stdout.Sync()
}

func printResult(label string, r *loadgen.Result) {
	l := r.Latency
	fmt.Printf("%-40s %10.0f tx/s  (completed %d in %.2fs)\n",
		label, r.Throughput, r.Completed, r.WindowSecs)
	fmt.Printf("  latency µs: p50 %d  p90 %d  p99 %d  p99.9 %d  max %d  mean %.0f\n",
		l.P50, l.P90, l.P99, l.P999, l.Max, l.Mean)
	if rl := r.ReadLatency; rl != nil {
		fmt.Printf("  fast reads: %d (%.0f/s, total %.0f tx/s)  latency µs: p50 %d  p99 %d  max %d  mean %.1f\n",
			r.Reads, r.ReadThroughput, r.TotalThroughput, rl.P50, rl.P99, rl.Max, rl.Mean)
		if len(r.ReadsPerReplica) > 0 {
			fmt.Printf("  reads by replica: %v  (remote %d, lease refusals %d)\n",
				r.ReadsPerReplica, r.RemoteReads, r.LeaseRefusals)
		}
	}
	fmt.Printf("  batching: %d envelopes in %d sends, avg %.1f/batch, largest %d\n",
		r.EnvelopesSent, r.BatchesSent, r.AvgBatch, r.LargestBatch)
	if s := r.SLO; s != nil {
		fmt.Printf("  slo: target %.0fms  goodput %.0f tx/s (%.1f%% of completions good)  shed %d (rate %.3f)\n",
			s.TargetMs, s.Goodput, 100*s.GoodFraction, r.Shed, s.ShedRate)
		if n := len(s.Trajectory); n > 0 {
			last := s.Trajectory[n-1]
			fmt.Printf("  controller: %d trajectory points, final batch %d / flush %dµs (queue %d)\n",
				n, last.Batch, last.FlushIntervalUs, last.QueueDepth)
		}
	}
	if st := r.Stages; st != nil {
		fmt.Printf("  stages (1 in %d sampled, %d records): e2e p50 %s  p99 %s\n",
			st.SampleEvery, st.Records, time.Duration(st.E2E.P50), time.Duration(st.E2E.P99))
		for _, sg := range st.Stages {
			fmt.Printf("    %-10s p50 %10s  p90 %10s  p99 %10s  max %10s  mean %10s\n",
				sg.Stage, time.Duration(sg.P50), time.Duration(sg.P90), time.Duration(sg.P99),
				time.Duration(sg.Max), time.Duration(sg.Mean))
		}
	}
	if d := r.Durable; d != nil {
		fmt.Printf("  durable: %d groups recovered (%d from snapshots), digests match, replay max %d envelopes (total %d), recovery mean %.0fµs max %dµs\n",
			d.Groups, d.SnapshottedGroups, d.MaxReplayedEnvelopes, d.ReplayedEnvelopes, d.RecoveryMeanUs, d.RecoveryMaxUs)
	}
	if ex := r.Execute; ex != nil {
		fmt.Printf("  execute: %d shards, %d applies, abort rate %.4f, invariants ok, digest %s…\n",
			ex.Shards, ex.TxApplied, ex.AbortRate, ex.GlobalDigest[:16])
		for _, typ := range []string{"new-order", "payment", "order-status", "delivery", "stock-level"} {
			st, ok := ex.PerType[typ]
			if !ok {
				continue
			}
			fmt.Printf("    %-13s committed %7d  aborted %5d  p50 %6dµs  p99 %7dµs\n",
				typ, st.Committed, st.Aborted, st.Latency.P50, st.Latency.P99)
		}
	}
}
