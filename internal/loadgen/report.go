package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"flexcast/internal/telemetry"
)

// Schema identifies the BENCH_runtime.json layout; bump on breaking
// changes so downstream tooling can dispatch.
const Schema = "flexload/v1"

// ReportConfig is the run configuration echoed into the report.
type ReportConfig struct {
	Transport       string  `json:"transport"`
	Protocol        string  `json:"protocol"`
	Groups          int     `json:"groups"`
	Clients         int     `json:"clients"`
	Workers         int     `json:"workers"`
	Mode            string  `json:"mode"` // "closed" or "open"
	RatePerClient   float64 `json:"rate_per_client,omitempty"`
	WarmupSecs      float64 `json:"warmup_s"`
	DurationSecs    float64 `json:"duration_s"`
	MaxBatch        int     `json:"max_batch"`
	FlushIntervalUS int64   `json:"flush_interval_us"`
	PayloadBytes    int     `json:"payload_bytes,omitempty"`
	Locality        float64 `json:"locality"`
	GlobalOnly      bool    `json:"global_only"`
	Seed            int64   `json:"seed"`
	// Execute marks store-execution runs; StoreSeed is the population
	// seed they used.
	Execute   bool  `json:"execute,omitempty"`
	StoreSeed int64 `json:"store_seed,omitempty"`
	// ReadPct is the fast-path read mix in percent (0 = writes only).
	ReadPct float64 `json:"read_pct,omitempty"`
	// Zipf is the workload's Zipfian skew parameter (0 = uniform).
	Zipf float64 `json:"zipf_s,omitempty"`
	// Replicas is the smr-style replication degree (1 = unreplicated);
	// FollowerReads marks runs that served reads from lease-holding
	// follower replicas (off: the leader-only remote-read baseline);
	// ReadWorkers is the number of dedicated read-only sessions per
	// client process.
	Replicas      int  `json:"replicas,omitempty"`
	FollowerReads bool `json:"follower_reads,omitempty"`
	ReadWorkers   int  `json:"read_workers,omitempty"`
	// Durable marks runs on the durable WAL+snapshot backend;
	// DurableSnapshotEvery/DurableFsyncEvery are its cadences (0: the
	// backend defaults, 256 and 64).
	Durable              bool `json:"durable,omitempty"`
	DurableSnapshotEvery int  `json:"durable_snapshot_every,omitempty"`
	DurableFsyncEvery    int  `json:"durable_fsync_every,omitempty"`
	// TraceSample is the lifecycle-tracing interval (1 in N writes;
	// 0 = tracing off).
	TraceSample int `json:"trace_sample,omitempty"`
	// Adaptive marks runs under the adaptive batching controller (the
	// batch/flush-interval knobs above are then the ceiling, not the
	// operating point). SLOTargetMs is the -slo-ms latency target;
	// Sessions the multiplexed virtual-session count with its
	// per-session admission knobs.
	Adaptive           bool    `json:"adaptive,omitempty"`
	SLOTargetMs        float64 `json:"slo_target_ms,omitempty"`
	Sessions           int     `json:"sessions,omitempty"`
	SessionOutstanding int     `json:"session_outstanding,omitempty"`
	SessionBurst       int     `json:"session_burst,omitempty"`
}

// Report is the serialized benchmark outcome (BENCH_runtime.json).
type Report struct {
	Schema        string       `json:"schema"`
	GeneratedUnix int64        `json:"generated_unix"`
	Config        ReportConfig `json:"config"`
	Results       *Result      `json:"results"`
	// Baseline holds the -batch=1 run when the benchmark ran in compare
	// mode, and SpeedupVsUnbatched its throughput ratio.
	Baseline           *Result `json:"baseline,omitempty"`
	SpeedupVsUnbatched float64 `json:"speedup_vs_unbatched,omitempty"`
	// Variants holds the A/B companion runs of flexload -ab, keyed by
	// which knob was flipped: "leader_reads" (follower reads off),
	// "static" (adaptive batching and session admission off), "no_reads"
	// (read mix off) and "no_trace" (lifecycle tracer off).
	Variants map[string]*Result `json:"variants,omitempty"`
	// ReadWriteP50Ratio is write p50 / read p50 on read-mix runs (read
	// p50 clamped to at least 1µs) — the headline fast-path gap.
	ReadWriteP50Ratio float64 `json:"read_write_p50_ratio,omitempty"`
}

// reportConfig converts a run Config.
func reportConfig(cfg Config) ReportConfig {
	mode := "closed"
	if cfg.Rate > 0 {
		mode = "open"
	}
	// cfg arrives filled (NewReport normalizes), so FlushInterval and
	// every other default are already the effective values.
	flush := cfg.FlushInterval
	rc := ReportConfig{
		Transport:       cfg.Transport,
		Protocol:        cfg.Protocol,
		Groups:          cfg.Groups,
		Clients:         cfg.Clients,
		Workers:         cfg.Workers,
		Mode:            mode,
		RatePerClient:   cfg.Rate,
		WarmupSecs:      cfg.Warmup.Seconds(),
		DurationSecs:    cfg.Duration.Seconds(),
		MaxBatch:        cfg.MaxBatch,
		FlushIntervalUS: flush.Microseconds(),
		PayloadBytes:    cfg.PayloadSize,
		Locality:        cfg.Locality,
		GlobalOnly:      cfg.GlobalOnly,
		Seed:            cfg.Seed,
		Execute:         cfg.Execute,
	}
	if cfg.Execute {
		rc.StoreSeed = cfg.StoreSeed
	}
	rc.ReadPct = cfg.ReadPct
	rc.Zipf = cfg.Zipf
	if cfg.Replicas > 1 {
		rc.Replicas = cfg.Replicas
		rc.FollowerReads = cfg.FollowerReads
	}
	rc.ReadWorkers = cfg.ReadWorkers
	if cfg.Durable {
		rc.Durable = true
		rc.DurableSnapshotEvery = cfg.DurableSnapshotEvery
		rc.DurableFsyncEvery = cfg.DurableFsyncEvery
	}
	if cfg.TraceSample > 0 {
		rc.TraceSample = cfg.TraceSample // negative = disabled: omit
	}
	rc.Adaptive = cfg.Adaptive
	rc.SLOTargetMs = cfg.SLOMs
	if cfg.Sessions > 0 {
		rc.Sessions = cfg.Sessions
		rc.SessionOutstanding = cfg.SessionOutstanding
		rc.SessionBurst = cfg.SessionBurst
	}
	return rc
}

// NewReport assembles a report from one measured run.
func NewReport(cfg Config, res *Result) *Report {
	if err := cfg.fill(); err != nil {
		// cfg was validated by Run already; fill here only normalizes.
		_ = err
	}
	rep := &Report{
		Schema:        Schema,
		GeneratedUnix: time.Now().Unix(),
		Config:        reportConfig(cfg),
		Results:       res,
	}
	if res.ReadLatency != nil && res.Reads > 0 {
		readP50 := res.ReadLatency.P50
		if readP50 < 1 {
			readP50 = 1 // sub-microsecond reads: clamp, never divide by zero
		}
		rep.ReadWriteP50Ratio = float64(res.Latency.P50) / float64(readP50)
	}
	return rep
}

// WithBaseline attaches an unbatched baseline run.
func (r *Report) WithBaseline(base *Result) *Report {
	r.Baseline = base
	if base != nil && base.Throughput > 0 {
		r.SpeedupVsUnbatched = r.Results.Throughput / base.Throughput
	}
	return r
}

// WithVariant attaches one A/B companion run under its label.
func (r *Report) WithVariant(label string, res *Result) *Report {
	if r.Variants == nil {
		r.Variants = make(map[string]*Result)
	}
	r.Variants[label] = res
	return r
}

// WriteFile serializes the report (indented, trailing newline).
func (r *Report) WriteFile(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ValidateFile parses a report file and sanity-checks it: schema match,
// plausible throughput, latency ordering, batching invariants. The CI
// benchmark smoke job gates on it.
func ValidateFile(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("loadgen: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	if r.Results == nil {
		return nil, fmt.Errorf("loadgen: %s: missing results", path)
	}
	if err := validateResult("results", r.Results); err != nil {
		return nil, err
	}
	if r.Config.ReadPct > 0 || r.Config.ReadWorkers > 0 {
		if r.Results.Reads == 0 || r.Results.ReadLatency == nil {
			return nil, fmt.Errorf("loadgen: %s: read workload configured but no reads measured", path)
		}
	}
	if r.Config.FollowerReads {
		var followerServed uint64
		for i, n := range r.Results.ReadsPerReplica {
			if i >= 1 {
				followerServed += n
			}
		}
		if followerServed == 0 {
			return nil, fmt.Errorf("loadgen: %s: follower reads configured but every read fell back to the serving node", path)
		}
	}
	if r.Baseline != nil {
		if err := validateResult("baseline", r.Baseline); err != nil {
			return nil, err
		}
	}
	for label, v := range r.Variants {
		if err := validateResult("variant "+label, v); err != nil {
			return nil, err
		}
	}
	return &r, nil
}

func validateResult(label string, res *Result) error {
	if res.Completed == 0 || res.Throughput <= 0 {
		return fmt.Errorf("loadgen: %s: no completed transactions", label)
	}
	if res.Issued == 0 {
		return fmt.Errorf("loadgen: %s: nothing issued in the measurement window", label)
	}
	l := res.Latency
	if l.Count == 0 || l.P50 == 0 {
		return fmt.Errorf("loadgen: %s: empty latency histogram", label)
	}
	if l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.P999 || l.P999 > l.Max || l.Min > l.P50 {
		return fmt.Errorf("loadgen: %s: percentiles out of order: %+v", label, l)
	}
	if rl := res.ReadLatency; rl != nil {
		// Fast-path reads sit at microsecond scale, so a zero p50 is
		// legitimate (sub-microsecond); only ordering is checked.
		if rl.Count == 0 || res.Reads == 0 {
			return fmt.Errorf("loadgen: %s: read summary present but empty", label)
		}
		if rl.P50 > rl.P90 || rl.P90 > rl.P99 || rl.P99 > rl.P999 || rl.P999 > rl.Max || rl.Min > rl.P50 {
			return fmt.Errorf("loadgen: %s: read percentiles out of order: %+v", label, rl)
		}
	}
	if len(res.ReadsPerReplica) > 0 {
		var sum uint64
		for _, n := range res.ReadsPerReplica {
			sum += n
		}
		if sum != res.Reads {
			return fmt.Errorf("loadgen: %s: per-replica read counts sum to %d but %d reads measured",
				label, sum, res.Reads)
		}
	}
	if res.EnvelopesSent < res.BatchesSent {
		return fmt.Errorf("loadgen: %s: %d envelopes in %d batches", label, res.EnvelopesSent, res.BatchesSent)
	}
	if res.Execute != nil {
		if err := validateExecute(label, res.Execute); err != nil {
			return err
		}
	}
	if res.Stages != nil {
		if err := validateStages(label, res.Stages); err != nil {
			return err
		}
	}
	if res.SLO != nil {
		if err := validateSLO(label, res); err != nil {
			return err
		}
	}
	if d := res.Durable; d != nil {
		if !d.DigestsMatch {
			return fmt.Errorf("loadgen: %s: crash-recovery digests diverged", label)
		}
		if d.Groups == 0 {
			return fmt.Errorf("loadgen: %s: durable run verified no groups", label)
		}
		if d.TornTailBytes != 0 {
			return fmt.Errorf("loadgen: %s: live crash image carried a torn WAL tail (%d bytes)", label, d.TornTailBytes)
		}
		if d.RecoveryMaxUs < 0 || d.MaxReplayedEnvelopes < 0 {
			return fmt.Errorf("loadgen: %s: negative durable recovery stats", label)
		}
		// A run that completed transactions has real per-group state, so
		// the kill-and-restart verification must have done measurable
		// work: a zero recovery time means the field was never stamped.
		if d.RecoveryMaxUs == 0 {
			return fmt.Errorf("loadgen: %s: durable run reports zero recovery time", label)
		}
		if d.RecoveryMeanUs <= 0 || d.RecoveryMeanUs > float64(d.RecoveryMaxUs) {
			return fmt.Errorf("loadgen: %s: durable recovery mean %.1fµs inconsistent with max %dµs",
				label, d.RecoveryMeanUs, d.RecoveryMaxUs)
		}
		if d.MaxReplayedEnvelopes > d.ReplayedEnvelopes {
			return fmt.Errorf("loadgen: %s: durable replay max %d exceeds total %d",
				label, d.MaxReplayedEnvelopes, d.ReplayedEnvelopes)
		}
	}
	return nil
}

// validateSLO sanity-checks the tail-latency section: a target must be
// set (a targetless SLO section scores nothing), good completions are a
// subset of completions, the shed rate must be a consistent fraction of
// offered load, a run shedding more than it issued is operating past
// any admissible envelope (the measurement is of the shed path, not the
// system), and the controller trajectory must be a time-ordered series
// of valid operating points.
func validateSLO(label string, res *Result) error {
	s := res.SLO
	if s.TargetMs <= 0 {
		return fmt.Errorf("loadgen: %s: slo section without a latency target", label)
	}
	if s.GoodCompleted > res.Completed {
		return fmt.Errorf("loadgen: %s: slo good completions %d exceed completions %d",
			label, s.GoodCompleted, res.Completed)
	}
	if res.Shed > res.Issued {
		return fmt.Errorf("loadgen: %s: shed %d exceeds issued %d (the run measured shedding, not the system)",
			label, res.Shed, res.Issued)
	}
	if s.ShedRate < 0 || s.ShedRate > 1 {
		return fmt.Errorf("loadgen: %s: shed rate %v outside [0, 1]", label, s.ShedRate)
	}
	if offered := res.Issued + res.Shed; offered > 0 {
		want := float64(res.Shed) / float64(offered)
		if diff := s.ShedRate - want; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("loadgen: %s: shed rate %v inconsistent with shed %d of %d offered",
				label, s.ShedRate, res.Shed, offered)
		}
	}
	if s.GoodFraction < 0 || s.GoodFraction > 1 {
		return fmt.Errorf("loadgen: %s: slo good fraction %v outside [0, 1]", label, s.GoodFraction)
	}
	prev := int64(-1)
	for i, p := range s.Trajectory {
		if p.Batch < 1 || p.FlushIntervalUs <= 0 || p.QueueDepth < 0 {
			return fmt.Errorf("loadgen: %s: slo trajectory point %d invalid: %+v", label, i, p)
		}
		if p.TMs < prev {
			return fmt.Errorf("loadgen: %s: slo trajectory not time-ordered at point %d", label, i)
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
func validateStages(label string, st *telemetry.StagesReport) error {
	if st.SampleEvery < 1 {
		return fmt.Errorf("loadgen: %s: stages report with sample_every %d", label, st.SampleEvery)
	}
	if st.Records == 0 || st.E2E.Count != st.Records {
		return fmt.Errorf("loadgen: %s: stages report records %d vs e2e count %d",
			label, st.Records, st.E2E.Count)
	}
	if len(st.Stages) == 0 {
		return fmt.Errorf("loadgen: %s: stages report with no stage summaries", label)
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
			return fmt.Errorf("loadgen: %s: unknown stage %q", label, sg.Stage)
		}
		if idx <= prev {
			return fmt.Errorf("loadgen: %s: stage %q out of pipeline order", label, sg.Stage)
		}
		prev = idx
		if sg.Count == 0 {
			return fmt.Errorf("loadgen: %s: stage %q has no samples", label, sg.Stage)
		}
		l := sg.NsSummary
		if l.Min > l.P50 || l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.P999 || l.P999 > l.Max {
			return fmt.Errorf("loadgen: %s: stage %q percentiles out of order: %+v", label, sg.Stage, l)
		}
		weighted += float64(sg.Count) * l.Mean
	}
	e2eTotal := float64(st.Records) * st.E2E.Mean
	if diff := weighted - e2eTotal; diff > e2eTotal*0.01 || diff < -e2eTotal*0.01 {
		return fmt.Errorf("loadgen: %s: stage durations sum to %.0fns but traced e2e totals %.0fns",
			label, weighted, e2eTotal)
	}
	return nil
}

// validateExecute sanity-checks the execute-mode section: the audits
// must have passed, the database fingerprint must be present, and the
// per-type stats must be plausible (only new-orders abort, at roughly
// TPC-C's 1 % rollback rate).
func validateExecute(label string, ex *ExecuteResult) error {
	if !ex.InvariantsOK || !ex.ReplicaDigestsOK {
		return fmt.Errorf("loadgen: %s: execution audits failed (invariants %v, replica digests %v)",
			label, ex.InvariantsOK, ex.ReplicaDigestsOK)
	}
	if len(ex.GlobalDigest) != 64 {
		return fmt.Errorf("loadgen: %s: malformed global digest %q", label, ex.GlobalDigest)
	}
	if len(ex.PerType) == 0 || ex.TxApplied == 0 {
		return fmt.Errorf("loadgen: %s: execute mode measured no transactions", label)
	}
	if ex.AbortRate > 0.1 {
		return fmt.Errorf("loadgen: %s: implausible abort rate %.3f", label, ex.AbortRate)
	}
	for typ, st := range ex.PerType {
		if st.Aborted > 0 && typ != "new-order" {
			return fmt.Errorf("loadgen: %s: %s transactions aborted (%d) — only new-orders roll back", label, typ, st.Aborted)
		}
		if st.Committed+st.Aborted > 0 && st.Latency.Count == 0 {
			return fmt.Errorf("loadgen: %s: %s has completions but no latency samples", label, typ)
		}
	}
	return nil
}
