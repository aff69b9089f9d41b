package loadgen

import (
	"encoding/json"
	"fmt"
	"os"

	"flexcast/internal/telemetry"
)

// Artefact is the per-run record: what flexload -out writes for its one
// run and what flexgrid writes for every repeat of every load cell —
// the run's effective configuration under the knob table's keys, the
// flattened metrics the grid aggregates, and the full Result.
type Artefact struct {
	// Cell and Repeat place the run in a grid (empty and 0 for a
	// flexload run); Kind is the grid's cell kind ("load", "soak").
	Cell    string             `json:"cell"`
	Kind    string             `json:"kind"`
	Repeat  int                `json:"repeat"`
	Params  Config             `json:"params"`
	Metrics map[string]float64 `json:"metrics"`
	Result  *Result            `json:"result,omitempty"`
}

// RunArtefact is Run for callers that publish numbers: it fills cfg,
// runs it, rejects a result that fails Validate, and returns the run's
// artefact (Cell and Repeat are the grid's to set).
func RunArtefact(cfg Config) (*Artefact, error) {
	if err := cfg.Fill(); err != nil {
		return nil, err
	}
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	if err := res.Validate(cfg); err != nil {
		return nil, err
	}
	return &Artefact{Kind: "load", Params: cfg, Metrics: res.Metrics(), Result: res}, nil
}

// WriteFile serializes the artefact (indented, trailing newline).
func (a *Artefact) WriteFile(path string) error {
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Metrics flattens the result into the uniform scalar map artefacts
// carry and the grid's aggregation, curves, history and compare layers
// operate on, stage decomposition included
// (stage_<name>_{p50,p99,mean}_ns) so cells compare stage by stage.
func (res *Result) Metrics() map[string]float64 {
	m := map[string]float64{
		"completed":       float64(res.Completed),
		"throughput_tx_s": res.Throughput,
		"window_s":        res.WindowSecs,
		"latency_p50_us":  float64(res.Latency.P50),
		"latency_p90_us":  float64(res.Latency.P90),
		"latency_p99_us":  float64(res.Latency.P99),
		"latency_mean_us": res.Latency.Mean,
		"avg_batch":       res.AvgBatch,
	}
	if res.Reads > 0 {
		m["reads"] = float64(res.Reads)
		m["read_throughput_tx_s"] = res.ReadThroughput
		m["total_throughput_tx_s"] = res.TotalThroughput
	}
	if res.ReadLatencyNs != nil {
		m["read_p50_ns"] = float64(res.ReadLatencyNs.P50)
		m["read_p99_ns"] = float64(res.ReadLatencyNs.P99)
		m["read_mean_ns"] = res.ReadLatencyNs.Mean
	}
	if len(res.ReadsPerReplica) > 0 {
		m["lease_refusals"] = float64(res.LeaseRefusals)
		m["remote_reads"] = float64(res.RemoteReads)
	}
	if res.Execute != nil {
		m["abort_rate"] = res.Execute.AbortRate
		m["tx_applied"] = float64(res.Execute.TxApplied)
	}
	if res.SLO != nil {
		// slo_goodput_tx_s compares up (the _tx_s suffix); shed and
		// slo_shed_rate compare down (the default direction).
		m["slo_goodput_tx_s"] = res.SLO.Goodput
		m["slo_good_fraction"] = res.SLO.GoodFraction
		m["slo_shed_rate"] = res.SLO.ShedRate
		m["shed"] = float64(res.Shed)
	}
	if res.Durable != nil {
		m["recovery_mean_us"] = res.Durable.RecoveryMeanUs
		m["recovery_max_us"] = float64(res.Durable.RecoveryMaxUs)
		m["max_replayed_envelopes"] = float64(res.Durable.MaxReplayedEnvelopes)
		m["max_replayed_bytes"] = float64(res.Durable.MaxReplayedBytes)
		m["recovery_checkpoints"] = float64(res.Durable.Checkpoints)
	}
	if st := res.Stages; st != nil {
		m["e2e_p50_ns"] = float64(st.E2E.P50)
		m["e2e_p99_ns"] = float64(st.E2E.P99)
		for _, sg := range st.Stages {
			m["stage_"+sg.Stage+"_p50_ns"] = float64(sg.P50)
			m["stage_"+sg.Stage+"_p99_ns"] = float64(sg.P99)
			m["stage_"+sg.Stage+"_mean_ns"] = sg.Mean
		}
	}
	return m
}

// Validate sanity-checks one run's measurement against the
// configuration that produced it: plausible throughput, latency
// ordering, batching invariants, the execute/stages/SLO/durable
// sections' internal identities, and that a configured read workload
// was actually measured. Every consumer of Run — flexload and each grid
// repeat — calls it before publishing a number.
func (res *Result) Validate(cfg Config) error {
	if res.Completed == 0 || res.Throughput <= 0 {
		return fmt.Errorf("loadgen: result: no completed transactions")
	}
	if res.Issued == 0 {
		return fmt.Errorf("loadgen: result: nothing issued in the measurement window")
	}
	l := res.Latency
	// Latency is recorded in truncated µs: a zero p50 is a sub-µs median.
	if l.Count == 0 {
		return fmt.Errorf("loadgen: result: empty latency histogram")
	}
	if l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.P999 || l.P999 > l.Max || l.Min > l.P50 {
		return fmt.Errorf("loadgen: result: percentiles out of order: %+v", l)
	}
	if rl := res.ReadLatency; rl != nil {
		// Fast-path reads sit at microsecond scale, so a zero p50 is
		// legitimate (sub-microsecond); only ordering is checked.
		if rl.Count == 0 || res.Reads == 0 {
			return fmt.Errorf("loadgen: result: read summary present but empty")
		}
		if rl.P50 > rl.P90 || rl.P90 > rl.P99 || rl.P99 > rl.P999 || rl.P999 > rl.Max || rl.Min > rl.P50 {
			return fmt.Errorf("loadgen: result: read percentiles out of order: %+v", rl)
		}
	}
	if len(res.ReadsPerReplica) > 0 {
		var sum uint64
		for _, n := range res.ReadsPerReplica {
			sum += n
		}
		if sum != res.Reads {
			return fmt.Errorf("loadgen: result: per-replica read counts sum to %d but %d reads measured", sum, res.Reads)
		}
	}
	if res.EnvelopesSent < res.BatchesSent {
		return fmt.Errorf("loadgen: result: %d envelopes in %d batches", res.EnvelopesSent, res.BatchesSent)
	}
	if res.ClientEnvelopes < res.ClientBatches || res.ClientBatches > res.BatchesSent || res.ClientEnvelopes > res.EnvelopesSent {
		return fmt.Errorf("loadgen: result: clients sent %d requests in %d frames, of %d envelopes in %d batches in all",
			res.ClientEnvelopes, res.ClientBatches, res.EnvelopesSent, res.BatchesSent)
	}
	if res.Execute != nil {
		if err := validateExecute(res.Execute); err != nil {
			return err
		}
	}
	if res.Stages != nil {
		if err := validateStages(res.Stages); err != nil {
			return err
		}
	}
	if res.SLO != nil {
		if err := validateSLO(res); err != nil {
			return err
		}
	}
	if d := res.Durable; d != nil {
		if !d.DigestsMatch {
			return fmt.Errorf("loadgen: result: crash-recovery digests diverged")
		}
		if d.Groups == 0 {
			return fmt.Errorf("loadgen: result: durable run verified no groups")
		}
		if d.TornTailBytes != 0 {
			return fmt.Errorf("loadgen: result: live crash image carried a torn WAL tail (%d bytes)", d.TornTailBytes)
		}
		if d.RecoveryMaxUs < 0 || d.MaxReplayedEnvelopes < 0 || d.MaxReplayedBytes < 0 || d.Checkpoints < 0 {
			return fmt.Errorf("loadgen: result: negative durable recovery stats")
		}
		// A run that completed transactions has real per-group state, so
		// the kill-and-restart verification must have done measurable
		// work: a zero recovery time means the field was never stamped.
		if d.RecoveryMaxUs == 0 {
			return fmt.Errorf("loadgen: result: durable run reports zero recovery time")
		}
		if d.RecoveryMeanUs <= 0 || d.RecoveryMeanUs > float64(d.RecoveryMaxUs) {
			return fmt.Errorf("loadgen: result: durable recovery mean %.1fµs inconsistent with max %dµs", d.RecoveryMeanUs, d.RecoveryMaxUs)
		}
		if d.MaxReplayedEnvelopes > d.ReplayedEnvelopes {
			return fmt.Errorf("loadgen: result: durable replay max %d exceeds total %d", d.MaxReplayedEnvelopes, d.ReplayedEnvelopes)
		}
	}
	if cfg.ReadPct > 0 || cfg.ReadWorkers > 0 {
		if res.Reads == 0 || res.ReadLatency == nil {
			return fmt.Errorf("loadgen: result: read workload configured but no reads measured")
		}
	}
	if cfg.FollowerReads {
		var followerServed uint64
		for i, n := range res.ReadsPerReplica {
			if i >= 1 {
				followerServed += n
			}
		}
		if followerServed == 0 {
			return fmt.Errorf("loadgen: result: follower reads configured but every read fell back to the serving node")
		}
	}
	return nil
}

// validateSLO sanity-checks the tail-latency section: a target must be
// set (a targetless SLO section scores nothing), good completions are a
// subset of completions, the shed rate must be a consistent fraction of
// offered load, a run shedding more than it issued is operating past
// any admissible envelope (the measurement is of the shed path, not the
// system), and the queue-depth trajectory must be a time-ordered series
// of non-negative depths inside the window.
func validateSLO(res *Result) error {
	s := res.SLO
	if s.TargetMs <= 0 {
		return fmt.Errorf("loadgen: result: slo section without a latency target")
	}
	if s.GoodCompleted > res.Completed {
		return fmt.Errorf("loadgen: result: slo good completions %d exceed completions %d", s.GoodCompleted, res.Completed)
	}
	if res.Shed > res.Issued {
		return fmt.Errorf("loadgen: result: shed %d exceeds issued %d (the run measured shedding, not the system)", res.Shed, res.Issued)
	}
	if s.ShedRate < 0 || s.ShedRate > 1 {
		return fmt.Errorf("loadgen: result: shed rate %v outside [0, 1]", s.ShedRate)
	}
	if offered := res.Issued + res.Shed; offered > 0 {
		want := float64(res.Shed) / float64(offered)
		if diff := s.ShedRate - want; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("loadgen: result: shed rate %v inconsistent with shed %d of %d offered", s.ShedRate, res.Shed, offered)
		}
	}
	if s.GoodFraction < 0 || s.GoodFraction > 1 {
		return fmt.Errorf("loadgen: result: slo good fraction %v outside [0, 1]", s.GoodFraction)
	}
	prev := int64(-1)
	for i, p := range s.Trajectory {
		if p.QueueDepth < 0 {
			return fmt.Errorf("loadgen: result: slo trajectory point %d invalid: %+v", i, p)
		}
		if p.TMs < prev {
			return fmt.Errorf("loadgen: result: slo trajectory not time-ordered at point %d", i)
		}
		if float64(p.TMs) > res.WindowSecs*1000 {
			return fmt.Errorf("loadgen: result: slo trajectory point %d at %d ms is past the %v s window", i, p.TMs, res.WindowSecs)
		}
		prev = p.TMs
	}
	return nil
}

// validateStages sanity-checks the stage-latency decomposition: every
// stage summary must be non-empty with ordered percentiles and appear
// in pipeline order, and because each traced request's stage durations
// telescope exactly to its end-to-end latency, the count-weighted stage
// means must sum to the traced e2e mean (within float rounding).
func validateStages(st *telemetry.StagesReport) error {
	if st.SampleEvery < 1 {
		return fmt.Errorf("loadgen: result: stages report with sample_every %d", st.SampleEvery)
	}
	if st.Records == 0 || st.E2E.Count != st.Records {
		return fmt.Errorf("loadgen: result: stages report records %d vs e2e count %d", st.Records, st.E2E.Count)
	}
	if len(st.Stages) == 0 {
		return fmt.Errorf("loadgen: result: stages report with no stage summaries")
	}
	order := make(map[string]int, telemetry.NumStages)
	for s := 1; s < telemetry.NumStages; s++ {
		order[telemetry.Stage(s).Name()] = s
	}
	prev := 0
	var weighted float64
	for _, sg := range st.Stages {
		idx, ok := order[sg.Stage]
		if !ok {
			return fmt.Errorf("loadgen: result: unknown stage %q", sg.Stage)
		}
		if idx <= prev {
			return fmt.Errorf("loadgen: result: stage %q out of pipeline order", sg.Stage)
		}
		prev = idx
		if sg.Count == 0 {
			return fmt.Errorf("loadgen: result: stage %q has no samples", sg.Stage)
		}
		l := sg.NsSummary
		if l.Min > l.P50 || l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.P999 || l.P999 > l.Max {
			return fmt.Errorf("loadgen: result: stage %q percentiles out of order: %+v", sg.Stage, l)
		}
		weighted += float64(sg.Count) * l.Mean
	}
	e2eTotal := float64(st.Records) * st.E2E.Mean
	if diff := weighted - e2eTotal; diff > e2eTotal*0.01 || diff < -e2eTotal*0.01 {
		return fmt.Errorf("loadgen: result: stage durations sum to %.0fns but traced e2e totals %.0fns", weighted, e2eTotal)
	}
	return nil
}

// validateExecute sanity-checks the execute-mode section: the audits
// must have passed, the database fingerprint must be present, and the
// per-type stats must be plausible (only new-orders abort, at roughly
// TPC-C's 1 % rollback rate).
func validateExecute(ex *ExecuteResult) error {
	if !ex.InvariantsOK || !ex.ReplicaDigestsOK {
		return fmt.Errorf("loadgen: result: execution audits failed (invariants %v, replica digests %v)", ex.InvariantsOK, ex.ReplicaDigestsOK)
	}
	if len(ex.GlobalDigest) != 64 {
		return fmt.Errorf("loadgen: result: malformed global digest %q", ex.GlobalDigest)
	}
	if len(ex.PerType) == 0 || ex.TxApplied == 0 {
		return fmt.Errorf("loadgen: result: execute mode measured no transactions")
	}
	if ex.AbortRate > 0.1 {
		return fmt.Errorf("loadgen: result: implausible abort rate %.3f", ex.AbortRate)
	}
	for typ, st := range ex.PerType {
		if st.Aborted > 0 && typ != "new-order" {
			return fmt.Errorf("loadgen: result: %s transactions aborted (%d) — only new-orders roll back", typ, st.Aborted)
		}
		if st.Committed+st.Aborted > 0 && st.Latency.Count == 0 {
			return fmt.Errorf("loadgen: result: %s has completions but no latency samples", typ)
		}
	}
	return nil
}
