// Command flexload is the one-run load CLI of the batched node runtime
// (internal/runtime): it deploys all groups and client processes in one
// OS process over the in-memory or loopback-TCP transport, drives them
// with open- or closed-loop gTPC-C clients, and reports sustained
// throughput plus exact latency percentiles from the HDR-style histogram
// (internal/metrics). The run is checked by loadgen's Result.Validate —
// a failed check exits non-zero — and -out writes the same per-run
// artefact a flexgrid repeat writes. Comparing two configurations is a
// flexgrid axis (experiments.json), not a flexload mode.
//
// Usage:
//
//	flexload                                   # closed loop, batching on, in-memory
//	flexload -batch 1                          # the unbatched baseline
//	flexload -transport tcp -clients 8 -workers 16
//	flexload -rate 20000 -duration 10s -out run.json   # open loop at 20k tx/s per client
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"flexcast/internal/loadgen"
	"flexcast/internal/telemetry"
)

func main() {
	// Every benchmark knob is a row of loadgen's knob table; AddFlags
	// binds them all with the struct's own defaults. Only command
	// concerns (output, telemetry) are declared here.
	cfg := loadgen.AddFlags(flag.CommandLine)
	var (
		telemetryF = flag.String("telemetry", "", "serve /metrics (JSON) and /debug/pprof on this address mid-run (e.g. 127.0.0.1:8090)")
		out        = flag.String("out", "", "write the JSON report to this file")
	)
	flag.Parse()

	if *telemetryF != "" {
		srv, err := telemetry.Serve(*telemetryF, telemetry.Default)
		if err != nil {
			log.Fatalf("flexload: telemetry: %v", err)
		}
		defer srv.Close()
		fmt.Printf("telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}

	art, err := loadgen.RunArtefact(*cfg)
	if err != nil {
		log.Fatalf("flexload: %v", err)
	}
	p := art.Params
	printResult(fmt.Sprintf("%s/%s batch=%d read-pct=%.0f", p.Transport, p.Protocol, p.MaxBatch, p.ReadPct), art.Result)
	if *out != "" {
		if err := art.WriteFile(*out); err != nil {
			log.Fatalf("flexload: write %s: %v", *out, err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
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
		// The headline fast-path gap; sub-microsecond reads clamp to 1µs.
		fmt.Printf("  write p50 / read p50: %.0fx\n", float64(l.P50)/float64(max(rl.P50, 1)))
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
