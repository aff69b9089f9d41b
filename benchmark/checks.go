package main

import (
	"flexcast/internal/loadgen"
)

// Output checks: a run whose outputs are wrong is a failed run, whatever
// it measured. loadgen.Run itself returns an error (and the pass fails)
// when a transaction times out, verdicts diverge across groups, the
// cross-shard invariants or replica digests do not hold, a recovered
// shard's digest differs from the live one or the replay exceeds the
// records since the last snapshot; the checks below cover what it
// reports but does not judge.

const (
	// The workload rolls back 1 % of new-orders in the payload; with
	// new-orders 45 % of the mix (51 % when global-only) the abort rate
	// sits near 0.5 %. Outside this band the generator or the store
	// changed behaviour.
	abortRateMin, abortRateMax = 0.002, 0.015
	// minStatSamples is the least number of completions the statistical
	// checks (abort rate, read balance) are applied to.
	minStatSamples = 5000
	// maxGenLag is how far the open loop may fall behind its offered
	// rate before the latency it reports stops meaning "at 3000 tx/s".
	maxGenLag = 0.02
	// A snapshot is due once 256 envelopes were logged and is taken at
	// the next delivery drain, so a replay is bounded by the cadence plus
	// one batch.
	maxReplayEnvs = 256 + ledgerMaxBatch
	// maxReplicaImbalance is the most two followers' read counts may
	// differ by, as a share of the larger (reads are dealt round-robin).
	maxReplicaImbalance = 0.10
	// maxStageSumError is how far the count-weighted stage means may be
	// from the traced end-to-end mean they telescope to.
	maxStageSumError = 0.01
)

// genLag is how far an open loop fell behind the rate it offered:
// 1 − (issued + shed) ÷ (rate × window); 0 for a closed loop.
func genLag(cfg loadgen.Config, res *loadgen.Result) float64 {
	if cfg.Rate <= 0 {
		return 0
	}
	return 1 - ratio(float64(res.Issued+res.Shed), cfg.Rate*float64(cfg.Clients)*res.WindowSecs)
}

func checkLoadgen(r *result, w *workload, cfg loadgen.Config, res *loadgen.Result, o options) {
	ex := res.Execute
	if ex == nil || !ex.InvariantsOK || !ex.ReplicaDigestsOK {
		r.fail("execute audit: invariants or replica digests not confirmed")
		return
	}
	statistical := !o.quick && res.Completed >= minStatSamples
	if statistical && (ex.AbortRate < abortRateMin || ex.AbortRate > abortRateMax) {
		r.fail("abort rate %.4f outside [%.3f, %.3f]", ex.AbortRate, abortRateMin, abortRateMax)
	}
	if lag := genLag(cfg, res); lag > maxGenLag && !o.quick {
		r.fail("open-loop generator lag %.3f above %.2f: %d issued or shed in %.1fs at %.0f tx/s per client", lag, maxGenLag, res.Issued+res.Shed, res.WindowSecs, cfg.Rate)
	}
	if w.durable {
		d := res.Durable
		switch {
		case d == nil || !d.DigestsMatch:
			r.fail("durable: recovered digests not confirmed")
		case d.MaxReplayedEnvelopes > maxReplayEnvs:
			r.fail("durable: replay of %d envelopes exceeds the snapshot cadence bound %d", d.MaxReplayedEnvelopes, maxReplayEnvs)
		}
	}
	if w.reads {
		// A lease lapses when the process is stalled for most of its 200 ms
		// term, which a loaded machine can do to a smoke run.
		if res.RemoteReads != 0 && !o.quick {
			r.fail("read-mix: %d reads crossed the transport (lease refusals %d)", res.RemoteReads, res.LeaseRefusals)
		}
		per := res.ReadsPerReplica
		if len(per) != cfg.Replicas {
			r.fail("read-mix: reads reported for %d replicas, deployed %d", len(per), cfg.Replicas)
		} else if statistical {
			lo, hi := per[1], per[1]
			for _, n := range per[2:] {
				if n < lo {
					lo = n
				}
				if n > hi {
					hi = n
				}
			}
			if float64(hi-lo) > maxReplicaImbalance*float64(hi) {
				r.fail("read-mix: follower reads unbalanced: %v", per)
			}
		}
	}
	if st := res.Stages; st != nil {
		if st.ActiveAtEnd != 0 {
			r.fail("tracer: %d records begun and never finished", st.ActiveAtEnd)
		}
		var weighted float64
		for _, s := range st.Stages {
			weighted += float64(s.Count) * s.Mean
		}
		total := float64(st.Records) * st.E2E.Mean
		if diff := weighted - total; diff > total*maxStageSumError || diff < -total*maxStageSumError {
			r.fail("tracer: stage means sum to %.0f ns, traced end-to-end totals %.0f ns", weighted, total)
		}
	} else if cfg.TraceSample > 0 {
		r.fail("tracer: traced run produced no stages report")
	}
}
