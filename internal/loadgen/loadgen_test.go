package loadgen

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func shortCfg() Config {
	return Config{
		Clients:  2,
		Workers:  8,
		Warmup:   100 * time.Millisecond,
		Duration: 400 * time.Millisecond,
		Timeout:  20 * time.Second,
	}
}

// TestRunInMemShort is the benchmark subsystem's smoke test: a short
// closed-loop run on the in-memory transport completes transactions and
// produces a self-consistent result that passes Validate.
func TestRunInMemShort(t *testing.T) {
	for _, batch := range []int{1, 16} {
		cfg := shortCfg()
		cfg.MaxBatch = batch
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if res.Completed == 0 || res.Throughput <= 0 {
			t.Fatalf("batch=%d: nothing completed: %+v", batch, res)
		}
		if res.Latency.P50 == 0 || res.Latency.P99 < res.Latency.P50 {
			t.Fatalf("batch=%d: implausible latency summary: %+v", batch, res.Latency)
		}
		if batch == 1 && res.BatchesSent != res.EnvelopesSent {
			t.Fatalf("batch=1 must send per envelope: %+v", res)
		}
		if err := res.Validate(cfg); err != nil {
			t.Fatalf("batch=%d: result failed validation: %v", batch, err)
		}
	}
}

// TestRunTCPShort drives the same smoke over loopback TCP.
func TestRunTCPShort(t *testing.T) {
	cfg := shortCfg()
	cfg.Transport = "tcp"
	cfg.Groups = 4 // fewer listeners: keep the test light
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatalf("nothing completed: %+v", res)
	}
}

// TestRunOpenLoopShort checks the open-loop pacer: offered load is
// honored (or shed under the outstanding cap) and completions resolve
// through the asynchronous reply path.
func TestRunOpenLoopShort(t *testing.T) {
	cfg := shortCfg()
	cfg.Rate = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatalf("nothing completed: %+v", res)
	}
	if res.Issued == 0 {
		t.Fatalf("pacer issued nothing: %+v", res)
	}
}

// checkExecuteResult asserts the execute-mode section is present and
// self-consistent.
func checkExecuteResult(t *testing.T, res *Result) {
	t.Helper()
	ex := res.Execute
	if ex == nil {
		t.Fatal("execute run produced no execution result")
	}
	if !ex.InvariantsOK || !ex.ReplicaDigestsOK {
		t.Fatalf("audits failed: %+v", ex)
	}
	if ex.TxApplied == 0 || len(ex.GlobalDigest) != 64 {
		t.Fatalf("implausible execution result: %+v", ex)
	}
	for typ, st := range ex.PerType {
		if st.Aborted > 0 && typ != "new-order" {
			t.Fatalf("%s aborted %d times; only new-orders roll back", typ, st.Aborted)
		}
	}
}

// TestRunExecuteInMem drives the store-backed benchmark: transactions
// execute at every involved shard, verdicts flow back on replies, the
// run drains and the cross-shard invariants and replica digests hold.
// The batched and unbatched paths must both execute correctly.
func TestRunExecuteInMem(t *testing.T) {
	for _, batch := range []int{1, 16} {
		cfg := shortCfg()
		cfg.Execute = true
		cfg.MaxBatch = batch
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if res.Completed == 0 {
			t.Fatalf("batch=%d: nothing completed", batch)
		}
		checkExecuteResult(t, res)

		if err := res.Validate(cfg); err != nil {
			t.Fatalf("batch=%d: execute result failed validation: %v", batch, err)
		}
	}
}

// TestRunDurable drives the executing deployment behind the durable
// backend — WAL appends, cadence points and background persist jobs on
// every group's runtime goroutine — and ends with the crash-image
// recovery verification: nodes stopped, engines closed, every group
// recovered to its live digest from a replay no longer than its
// snapshot age. A small cadence makes the one-second run cross many
// snapshots per group.
func TestRunDurable(t *testing.T) {
	cfg := shortCfg()
	cfg.Groups = 4
	cfg.Execute = true
	cfg.Duration = time.Second
	cfg.Durable = true
	cfg.DurableDir = t.TempDir()
	cfg.DurableSnapshotEvery = 32
	cfg.MaxBatch = 16
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	checkExecuteResult(t, res)
	d := res.Durable
	if d == nil || !d.DigestsMatch || d.Groups != 4 || d.SnapshottedGroups == 0 {
		t.Fatalf("durable verification: %+v, want 4 groups recovered to matching digests, from snapshots where they took any", d)
	}
	if d.MaxReplayedEnvelopes >= cfg.DurableSnapshotEvery+cfg.MaxBatch || d.TornTailBytes != 0 {
		t.Fatalf("durable verification replayed up to %d envelopes (torn %d bytes) at cadence %d",
			d.MaxReplayedEnvelopes, d.TornTailBytes, cfg.DurableSnapshotEvery)
	}
	if err := res.Validate(cfg); err != nil {
		t.Fatalf("durable result failed validation: %v", err)
	}
}

// TestRunExecuteTCP drives store execution over loopback TCP: the
// result byte must survive the wire codec for verdicts to reach
// clients.
func TestRunExecuteTCP(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.Transport = "tcp"
	cfg.Groups = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	checkExecuteResult(t, res)
}

// TestRunExecuteDeterministicDigest runs the same seeded closed-loop
// workload twice; completion interleavings differ, but the audits must
// hold in both runs and the final global digest must be reported.
func TestRunExecuteDeterministicDigest(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.Protocol = "skeen"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkExecuteResult(t, res)
}

// TestConfigValidation rejects unknown transports and protocols.
// TestRunReadMix exercises the local-read fast path under load: half
// the iterations are fast-path reads, measured in their own histogram,
// while the multicast path and every execute-mode audit stay intact.
func TestRunReadMix(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.ReadPct = 50
	cfg.Zipf = 1.3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatalf("no multicast transactions completed: %+v", res)
	}
	if res.Reads == 0 || res.ReadLatency == nil || res.ReadLatency.Count == 0 {
		t.Fatalf("read mix measured no fast-path reads: %+v", res)
	}
	if res.TotalThroughput <= res.Throughput {
		t.Fatalf("total throughput %v not above write throughput %v", res.TotalThroughput, res.Throughput)
	}
	// Fast reads must be far cheaper than the multicast path.
	if res.ReadLatency.Mean >= res.Latency.Mean {
		t.Fatalf("fast reads slower than multicast writes: read mean %v vs write mean %v",
			res.ReadLatency.Mean, res.Latency.Mean)
	}
	if res.Execute == nil || !res.Execute.InvariantsOK || !res.Execute.ReplicaDigestsOK {
		t.Fatalf("execute audits failed under read mix: %+v", res.Execute)
	}
	// The read section passes validation.
	if err := res.Validate(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestReadMixRequiresExecute pins the config contract.
func TestReadMixRequiresExecute(t *testing.T) {
	cfg := shortCfg()
	cfg.ReadPct = 50
	if _, err := Run(cfg); err == nil {
		t.Fatal("read mix without execute accepted")
	}
	cfg = shortCfg()
	cfg.Execute = true
	cfg.ReadPct = 101
	if _, err := Run(cfg); err == nil {
		t.Fatal("read percentage above 100 accepted")
	}
	cfg = shortCfg()
	cfg.Zipf = 0.5
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid zipf parameter accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Transport: "carrier-pigeon"}); err == nil {
		t.Fatal("bad transport accepted")
	}
	if _, err := Run(Config{Protocol: "two-phase-wish"}); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if _, err := Run(Config{Groups: 1}); err == nil {
		t.Fatal("single group accepted")
	}
}

// TestArtefactRoundTrip writes the artefact of a run that carries every
// optional section (execute, reads, SLO with a controller trajectory,
// stages) and reads it back: the result must still pass Validate
// against the configuration that travelled with it, the effective
// configuration must come back under the knob table's keys, and
// re-serializing what was read must reproduce the file byte for byte —
// no section, field or parameter is lost or renamed on the way.
func TestArtefactRoundTrip(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.ReadPct = 25
	cfg.Rate = 2000
	cfg.Sessions = 256
	cfg.Adaptive = true
	cfg.SLOMs = 500
	cfg.TraceSample = 4
	art, err := RunArtefact(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := art.Result
	if res.Execute == nil || res.SLO == nil || res.Stages == nil || res.ReadLatency == nil {
		t.Fatalf("run is missing a section the round trip should cover: %+v", res)
	}
	if art.Params.MaxBatch != 64 || art.Params.TraceSample != 4 || art.Params.Warmup != cfg.Warmup {
		t.Fatalf("artefact does not carry the effective configuration: %+v", art.Params)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Artefact
	if err := json.Unmarshal(written, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Result.Validate(back.Params); err != nil {
		t.Fatalf("artefact failed validation on read: %v", err)
	}
	if back.Params != art.Params {
		t.Fatalf("configuration mangled in round trip:\n got %+v\nwant %+v", back.Params, art.Params)
	}
	if back.Result.Completed != res.Completed || back.Result.Execute == nil || back.Result.SLO == nil ||
		back.Result.Stages == nil || back.Metrics["throughput_tx_s"] != res.Throughput {
		t.Fatalf("result mangled in round trip: %+v", back.Result)
	}
	again := filepath.Join(dir, "again.json")
	if err := back.WriteFile(again); err != nil {
		t.Fatal(err)
	}
	if rewritten, _ := os.ReadFile(again); !bytes.Equal(written, rewritten) {
		t.Fatalf("re-serialized artefact differs from the file it was read from")
	}
}

// TestValidateRejectsGarbage covers the gate's failure modes: a result
// that measured nothing, and an artefact naming a parameter the knob
// table does not have.
func TestValidateRejectsGarbage(t *testing.T) {
	if err := (&Result{}).Validate(Config{}); err == nil {
		t.Fatal("empty result accepted")
	}
	if err := (&Result{Completed: 1, Throughput: 1}).Validate(Config{}); err == nil {
		t.Fatal("result with nothing issued and no latency samples accepted")
	}
	var a Artefact
	if err := json.Unmarshal([]byte(`{"params":{"bacth":64},"result":{"completed":1}}`), &a); err == nil {
		t.Fatal("artefact with an unknown parameter accepted")
	}
}

// TestRunFollowerReads deploys the replicated read path: every group
// gains follower read replicas, dedicated read sessions hammer them at
// the session barrier, and the report carries the per-replica read
// breakdown. With follower reads on, the followers (not the serving
// node) serve the reads.
func TestRunFollowerReads(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.ReadPct = 25
	cfg.Replicas = 3
	cfg.FollowerReads = true
	cfg.ReadWorkers = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Reads == 0 {
		t.Fatalf("run measured nothing: %+v", res)
	}
	if len(res.ReadsPerReplica) != 3 {
		t.Fatalf("reads_per_replica has %d entries, want 3", len(res.ReadsPerReplica))
	}
	if res.ReadsPerReplica[1]+res.ReadsPerReplica[2] == 0 {
		t.Fatalf("followers served nothing: %v", res.ReadsPerReplica)
	}
	var sum uint64
	for _, n := range res.ReadsPerReplica {
		sum += n
	}
	if sum != res.Reads {
		t.Fatalf("per-replica counts %v do not sum to reads %d", res.ReadsPerReplica, res.Reads)
	}
	if res.Execute == nil || !res.Execute.InvariantsOK {
		t.Fatalf("execute audits failed under follower reads: %+v", res.Execute)
	}
	if err := res.Validate(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunTracedStages runs with lifecycle tracing on and checks the
// stage decomposition: sampled record count tracks 1-in-N of
// completions, stage summaries appear in pipeline order, and the
// stages section passes validation (which also enforces the
// telescoping count-weighted mean identity).
func TestRunTracedStages(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.TraceSample = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	st := res.Stages
	if st == nil {
		t.Fatalf("traced run produced no stages section: %+v", res)
	}
	if st.SampleEvery != 4 {
		t.Fatalf("sample_every = %d, want 4", st.SampleEvery)
	}
	// 1-in-N sampling: the sampled population is every 4th sequence
	// number, so records sits near completed/4. Allow wide slack for
	// requests in flight at the deadline and per-client remainders.
	lo, hi := res.Completed/8, res.Completed/2
	if st.Records < lo || st.Records > hi {
		t.Fatalf("records = %d for %d completed; want within [%d, %d] (≈1 in 4)",
			st.Records, res.Completed, lo, hi)
	}
	if st.E2E.Count != st.Records {
		t.Fatalf("e2e count %d != records %d", st.E2E.Count, st.Records)
	}
	// The execute stage must be present on a store-backed run, and all
	// summaries must arrive in pipeline order with samples.
	seen := map[string]bool{}
	for _, sg := range st.Stages {
		if sg.Count == 0 {
			t.Fatalf("stage %s has no samples", sg.Stage)
		}
		seen[sg.Stage] = true
	}
	for _, want := range []string{"ingress", "ordering", "execute", "reply"} {
		if !seen[want] {
			t.Fatalf("stage %q missing from decomposition: %+v", want, st.Stages)
		}
	}
	// Validate runs validateStages on the section (the telescoping
	// count-weighted mean identity included).
	if err := res.Validate(cfg); err != nil {
		t.Fatal(err)
	}

	// Untraced control: no stages section (negative disables; 0 would
	// fill to the default of 16).
	cfg.TraceSample = -1
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stages != nil {
		t.Fatalf("untraced run grew a stages section: %+v", res2.Stages)
	}
}

// TestRunLeaderReadsRemote is the replicated leader-only baseline:
// reads cross the transport as KindRead transactions to the serving
// node, resolve through the reply path, and none may be refused.
func TestRunLeaderReadsRemote(t *testing.T) {
	cfg := shortCfg()
	cfg.Execute = true
	cfg.ReadPct = 25
	cfg.Replicas = 2
	cfg.ReadWorkers = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads == 0 {
		t.Fatalf("no remote reads measured: %+v", res)
	}
	if res.RemoteReads != res.Reads {
		t.Fatalf("leader-only run served %d of %d reads remotely", res.RemoteReads, res.Reads)
	}
	if res.ReadsPerReplica[1] != 0 {
		t.Fatalf("leader-only run read a follower: %v", res.ReadsPerReplica)
	}
	// Remote reads pay a transport round trip; the write path must
	// still dominate them (they skip the ordering round entirely).
	if res.ReadLatency == nil || res.ReadLatency.Count == 0 {
		t.Fatal("remote reads measured no latency")
	}
}

// TestFollowerReadsConfigContract pins the new knobs' validation.
func TestFollowerReadsConfigContract(t *testing.T) {
	cfg := shortCfg()
	cfg.Replicas = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("-replicas without -execute accepted")
	}
	cfg = shortCfg()
	cfg.Execute = true
	cfg.FollowerReads = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("-follower-reads without -replicas accepted")
	}
	cfg = shortCfg()
	cfg.ReadWorkers = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("-read-workers without -execute accepted")
	}
}

// TestRunSessionsOpenLoop is the session-multiplexed open loop end to
// end on the in-memory transport: ~10^3 virtual sessions per client
// ride the process's single connection, the adaptive controller runs
// the nodes, and the result carries a validatable SLO section with a
// controller trajectory.
func TestRunSessionsOpenLoop(t *testing.T) {
	cfg := shortCfg()
	cfg.Rate = 4000
	cfg.Sessions = 1024
	cfg.Adaptive = true
	cfg.SLOMs = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Issued == 0 {
		t.Fatalf("session-multiplexed run measured nothing: %+v", res)
	}
	slo := res.SLO
	if slo == nil {
		t.Fatalf("-slo-ms run produced no slo section: %+v", res)
	}
	if slo.TargetMs != 200 || slo.Sessions != 1024 {
		t.Fatalf("slo config echo mangled: %+v", slo)
	}
	if slo.GoodCompleted > res.Completed {
		t.Fatalf("good %d exceeds completed %d", slo.GoodCompleted, res.Completed)
	}
	if len(slo.Trajectory) == 0 {
		t.Fatalf("no controller trajectory sampled over a %v window", cfg.Duration)
	}
	for i, p := range slo.Trajectory {
		if p.Batch < 1 || p.FlushIntervalUs < 50 {
			t.Fatalf("trajectory point %d outside the controller range: %+v", i, p)
		}
	}
	if err := res.Validate(cfg); err != nil {
		t.Fatalf("slo result failed validation: %v", err)
	}
}

// TestRunSessionsTCP drives session multiplexing over loopback TCP with
// store execution: many sessions share each client's one real socket,
// session ids cross the wire codec, per-session FIFO rides the
// connection's FIFO, and every execute-mode audit (verdicts, invariants,
// replica digests) must still hold.
func TestRunSessionsTCP(t *testing.T) {
	cfg := shortCfg()
	cfg.Transport = "tcp"
	cfg.Groups = 4
	cfg.Rate = 2000
	cfg.Sessions = 256
	cfg.Adaptive = true
	cfg.SLOMs = 500
	cfg.Execute = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatalf("nothing completed: %+v", res)
	}
	checkExecuteResult(t, res)
	if res.SLO == nil {
		t.Fatal("no slo section over TCP")
	}
}

// TestRunSessionsShedUnderOverload overdrives a session-multiplexed
// run far past capacity with a tight per-session budget: admission must
// shed (not queue) the excess, and the shed count must be visible in
// the SLO section's shed rate.
func TestRunSessionsShedUnderOverload(t *testing.T) {
	cfg := shortCfg()
	cfg.Rate = 50000 // far past what the deployment completes
	cfg.Sessions = 16
	cfg.SessionOutstanding = 1
	cfg.SessionBurst = 1
	cfg.SLOMs = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("overdriven run shed nothing: %+v", res)
	}
	if res.SLO == nil || res.SLO.ShedRate <= 0 {
		t.Fatalf("shed rate missing from slo section: %+v", res.SLO)
	}
}
