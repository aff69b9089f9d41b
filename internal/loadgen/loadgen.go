// Package loadgen is the sustained-load benchmark subsystem behind
// cmd/flexload: it deploys the batched node runtime (internal/runtime)
// over the in-memory or TCP transport, drives it with open- or
// closed-loop gTPC-C clients, and measures sustained throughput and
// latency percentiles with the exact-percentile histogram
// (internal/metrics). Every run is checked by Result.Validate before a
// number is published, and recorded as one Artefact.
//
// The client model mirrors the paper's evaluation (§5.3): a few client
// processes, each running many concurrent closed-loop sessions. Client
// processes batch their requests per destination exactly like the
// server runtime, so the -batch knob governs the whole path.
package loadgen

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/core"
	"flexcast/internal/deploy"
	"flexcast/internal/durable"
	"flexcast/internal/gtpcc"
	"flexcast/internal/metrics"
	"flexcast/internal/runtime"
	"flexcast/internal/store"
	"flexcast/internal/telemetry"
	"flexcast/internal/wan"
)

// Config parameterizes one load run. It is the programmatic entry
// point behind cmd/flexload and cmd/flexgrid: the zero value is a
// complete configuration (Fill supplies every default), and each field
// has one row in the knob table (knobs.go) that spells its flexload
// flag and its JSON key for grid cells and run artefacts.
type Config struct {
	// Transport selects "inmem" (default), "tcp" (loopback, one
	// in-process TCP node per group and client) or "wan" (the in-memory
	// transport with each link delayed by the paper's inter-region
	// one-way latency matrix — wan.OneWayMicros — so the fig5-style WAN
	// curves run against real wall-clock latency).
	Transport string
	// Protocol names the protocol as deploy.ParseProtocol spells it
	// (default flexcast); Fill rewrites it to the canonical name.
	Protocol string
	// Groups is the number of server groups (default 12: the paper's WAN
	// group set and overlays; other sizes use a chain overlay).
	Groups int
	// Clients is the number of client processes (default 4).
	Clients int
	// Workers is the number of concurrent closed-loop sessions per
	// client process (default 32).
	Workers int
	// Rate, when > 0, switches to open-loop: each client process issues
	// Rate requests per second independent of completions.
	Rate float64
	// MaxOutstanding bounds in-flight transactions per client process in
	// open-loop mode; issuance beyond it is shed and counted (default
	// 512). Unbounded open loop over capacity measures bufferbloat — the
	// protocol's open-dependency tracking degrades superlinearly in
	// in-flight messages — not the runtime under test.
	MaxOutstanding int
	// FlushEvery is the period of the §4.3 flush/garbage-collection
	// client; it bounds the engines' history growth exactly as every
	// paper experiment does (default 500ms; negative disables).
	FlushEvery time.Duration
	// Warmup and Duration are the warm-up and measurement windows
	// (defaults 1s and 5s).
	Warmup   time.Duration
	Duration time.Duration
	// MaxBatch is the runtime batch cap for servers and clients; 1
	// disables batching (the baseline), 0 defaults to 64.
	MaxBatch int
	// FlushInterval is read by nothing: nodes flush at the end of every
	// chunk and run no timer. It has no knob row (no flag, no JSON key)
	// and stays only because the benchmark's workload table sets it.
	FlushInterval time.Duration
	// PayloadSize overrides the gTPC-C payload size when > 0.
	PayloadSize int
	// Locality is the gTPC-C locality rate (default 0.95).
	Locality float64
	// GlobalOnly restricts the workload to multi-group transactions.
	GlobalOnly bool
	// Seed drives the workload (default 1).
	Seed int64
	// Timeout bounds one transaction (default 30s); exceeding it fails
	// the run.
	Timeout time.Duration
	// Execute runs the partitioned gTPC-C store (internal/store) at
	// every group: transaction payloads carry full detail, each group
	// executes its warehouse shard's portion of every delivery (plus a
	// mirror replica as a determinism audit), clients observe per-
	// transaction commit/abort verdicts, and the run ends with a drain
	// phase followed by the cross-shard invariant and replica-digest
	// checks.
	Execute bool
	// StoreSeed seeds the store's initial population in execute mode
	// (default: Seed).
	StoreSeed int64
	// ReadPct is the read mix in percent: that fraction of each
	// session's iterations issue a read-only single-shard transaction
	// (order-status or stock-level at the client's home warehouse)
	// through the read fast path — no multicast, executed at the
	// client's delivered-prefix barrier. Reads are measured in their own
	// histogram (Result.ReadLatency) and never enter the multicast
	// counters. Requires Execute. How a read is served depends on
	// Replicas/FollowerReads below.
	ReadPct float64
	// Replicas is the replication degree of every group (default 1: the
	// serving node alone, reads served exactly as PR 4's local fast
	// path). With Replicas >= 2, each group gains Replicas-1 follower
	// read replicas applying the group's delivery log shipped from the
	// serving node — the smr deployment shape (replicas kept consistent
	// by applying the same decided sequence; internal/smr sequences it
	// through Paxos, this in-process benchmark ships it directly) — and
	// the read path models clients NOT co-located with the serving
	// node: reads travel to it as KindRead transactions over the
	// transport (request, queue, reply), unless FollowerReads routes
	// them to the client's local replica instead. Requires Execute.
	Replicas int
	// FollowerReads, with Replicas >= 2, serves reads from lease-holding
	// follower replicas local to the client (round-robin), each read at
	// the client's session barrier against the replica's own watermark —
	// the follower-read-leases configuration. An expired lease falls
	// back to the remote serving node and is counted
	// (Result.LeaseRefusals). Off, reads go remote to the serving node —
	// the leader-only baseline of the A/B.
	FollowerReads bool
	// ReadWorkers adds that many dedicated closed-loop read-only
	// sessions per client process (each hammering reads back-to-back at
	// its session barrier), measuring read capacity under the
	// configured routing while the write workload runs at equal load.
	// Requires Execute.
	ReadWorkers int
	// LeaseTerm is the follower read-lease term (default 200ms; leases
	// renew as each group's delivery log ships).
	LeaseTerm time.Duration
	// Zipf, when > 1, skews the gTPC-C workload with a Zipfian law of
	// that parameter (hot items, hot customers, near destinations); see
	// gtpcc.Config.Zipf.
	Zipf float64
	// Durable runs every group's engine behind the durable backend
	// (internal/durable): a write-ahead log of every input envelope plus
	// periodic snapshot files. The run then ends with a crash-recovery
	// verification: the on-disk image — exactly what a kill -9 at the end
	// of the measurement window would leave — is recovered into fresh
	// stacks whose whole engine and store state is compared byte for byte
	// against the live one, and the replay length is checked against the
	// live engines' inputs since the last checkpoint (the snapshot-age
	// recovery bound). Requires Execute.
	Durable bool
	// DurableDir is the persistence root (each run persists into a fresh
	// subdirectory so successive runs never recover each other's state;
	// empty: a temp dir removed when the run ends).
	DurableDir string
	// DurableSnapshotEvery and DurableFsyncEvery override the backend's
	// checkpoint and fsync cadences (0: the durable package defaults,
	// 256 and 64).
	DurableSnapshotEvery int
	DurableFsyncEvery    int
	// SLOMs, when > 0, adds the tail-latency SLO section to the result:
	// goodput at p99 <= SLOMs milliseconds, shed rate, and the
	// queue-depth trajectory over the measurement window.
	SLOMs float64
	// Sessions, when > 0, multiplexes that many virtual sessions over
	// each client process's single transport connection in open-loop
	// mode (requires Rate > 0): the offered rate splits evenly across
	// sessions, each behind its own admission gate (token bucket of
	// SessionBurst, outstanding cap SessionOutstanding), and refused
	// issuances are shed — counted, never queued. Session ids ride the
	// envelope (FlagSession), so per-session FIFO and read-your-writes
	// hold over the shared connection. 0 keeps the legacy process-level
	// MaxOutstanding cap.
	Sessions int
	// SessionOutstanding caps in-flight transactions per session
	// (default 4); SessionBurst is the per-session token-bucket depth
	// (default 8).
	SessionOutstanding int
	SessionBurst       int
	// TraceSample traces one in TraceSample write transactions through
	// the lifecycle tracer (internal/telemetry): stage timestamps at
	// submit, inbound queue entry/exit, delivery, store execution,
	// reply-batch flush and completion, folded into the per-stage
	// latency histograms of Result.Stages. Sampling is deterministic on
	// the message id, so every component agrees on the sampled set with
	// no coordination; unsampled requests cost one branch per stage.
	// 0 defaults to 16 (tracing on — the measured overhead is within
	// run-to-run noise and the decomposition rides every report);
	// negative disables tracing.
	TraceSample int
}

// Fill normalizes the configuration in place — every unset field takes
// its default — and reports validation errors. It is idempotent. Run
// calls it implicitly; RunArtefact calls it first, so the artefact
// records the effective configuration.
func (c *Config) Fill() error {
	if c.Transport == "" {
		c.Transport = "inmem"
	}
	if c.Transport != "inmem" && c.Transport != "tcp" && c.Transport != "wan" {
		return fmt.Errorf("loadgen: unknown transport %q", c.Transport)
	}
	if c.Protocol == "" {
		c.Protocol = "flexcast"
	}
	p, err := deploy.ParseProtocol(c.Protocol)
	if err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	c.Protocol = p.Name()
	if c.Groups == 0 {
		c.Groups = wan.NumRegions
	}
	if c.Groups < 2 {
		return fmt.Errorf("loadgen: need at least 2 groups")
	}
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Workers == 0 {
		c.Workers = 32
	}
	if c.Warmup == 0 {
		c.Warmup = time.Second
	}
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 512
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = 500 * time.Millisecond
	}
	if c.Locality == 0 {
		c.Locality = 0.95
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	if c.StoreSeed == 0 {
		c.StoreSeed = c.Seed
	}
	if c.ReadPct < 0 || c.ReadPct > 100 {
		return fmt.Errorf("loadgen: read percentage %v outside [0, 100]", c.ReadPct)
	}
	if c.ReadPct > 0 && !c.Execute {
		return fmt.Errorf("loadgen: -read-pct requires -execute (fast-path reads run against the store)")
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Replicas < 1 {
		return fmt.Errorf("loadgen: replication degree %d below 1", c.Replicas)
	}
	if c.Replicas > 1 && !c.Execute {
		return fmt.Errorf("loadgen: -replicas requires -execute (follower replicas replicate the store)")
	}
	if c.FollowerReads && c.Replicas < 2 {
		return fmt.Errorf("loadgen: -follower-reads requires -replicas >= 2")
	}
	if c.ReadWorkers < 0 {
		return fmt.Errorf("loadgen: negative read workers")
	}
	if c.ReadWorkers > 0 && !c.Execute {
		return fmt.Errorf("loadgen: -read-workers requires -execute")
	}
	if c.Workers+c.ReadWorkers >= 1<<13 {
		// Worker w's ids start at w<<24; 8192<<24 is readSeqBase, the
		// remote reads' id space.
		return fmt.Errorf("loadgen: %d sessions per client exceed the per-worker id space (max %d)",
			c.Workers+c.ReadWorkers, 1<<13-1)
	}
	if c.LeaseTerm == 0 {
		c.LeaseTerm = 200 * time.Millisecond
	}
	if c.Zipf != 0 && c.Zipf <= 1 {
		return fmt.Errorf("loadgen: zipf parameter %v outside (1, inf)", c.Zipf)
	}
	if c.Durable && !c.Execute {
		return fmt.Errorf("loadgen: -durable requires -execute (crash recovery is verified against the store state)")
	}
	if c.TraceSample == 0 {
		c.TraceSample = 16
	}
	if c.SLOMs < 0 {
		return fmt.Errorf("loadgen: negative SLO target %v", c.SLOMs)
	}
	if c.Sessions < 0 {
		return fmt.Errorf("loadgen: negative session count")
	}
	if c.Sessions > 0 && c.Rate <= 0 {
		return fmt.Errorf("loadgen: -sessions requires -rate (admission control gates the open loop)")
	}
	if c.SessionOutstanding == 0 {
		c.SessionOutstanding = 4
	}
	if c.SessionOutstanding < 0 {
		return fmt.Errorf("loadgen: negative per-session outstanding cap")
	}
	if c.SessionBurst == 0 {
		c.SessionBurst = 8
	}
	if c.SessionBurst < 0 {
		return fmt.Errorf("loadgen: negative per-session burst")
	}
	return nil
}

// Defaults returns the effective defaults of a zero Config — what Run
// fills in when a field is unset — with the derived fields (StoreSeed,
// which follows Seed) left at zero so their derivation still applies
// after the caller overrides the fields they derive from. AddFlags
// uses it so flag defaults and struct defaults can never diverge.
func Defaults() Config {
	var c Config
	if err := c.Fill(); err != nil {
		panic(err) // the zero Config must always validate
	}
	c.StoreSeed = 0 // derived: follows Seed at fill time
	return c
}

// TxTypeStats is the execute-mode measurement of one transaction type.
type TxTypeStats struct {
	// Committed and Aborted count measurement-window completions by
	// verdict.
	Committed uint64 `json:"committed"`
	Aborted   uint64 `json:"aborted"`
	// Latency summarizes the type's completion latency in the window.
	Latency metrics.LatencySummary `json:"latency_us"`
}

// ExecuteResult is the execute-mode extension of a run's measurement.
type ExecuteResult struct {
	// PerType breaks the measurement window down by transaction type.
	PerType map[string]*TxTypeStats `json:"per_type"`
	// Aborted counts window completions that rolled back; AbortRate is
	// their fraction of all window completions.
	Aborted   uint64  `json:"aborted"`
	AbortRate float64 `json:"abort_rate"`
	// InvariantsOK reports the post-drain cross-shard invariant audit
	// (a failed audit fails the run, so emitted reports carry true).
	InvariantsOK bool `json:"invariants_ok"`
	// ReplicaDigestsOK reports that every shard's mirror replica
	// reached a byte-identical digest.
	ReplicaDigestsOK bool `json:"replica_digests_ok"`
	// GlobalDigest is the hex digest folded over all shard digests in
	// group order — the run's final database fingerprint.
	GlobalDigest string `json:"global_digest"`
	// PaymentsBanked is the warehouses' total year-to-date payment
	// intake, cross-checked against the clients' committed payment
	// amounts over the whole run.
	PaymentsBanked int64 `json:"payments_banked"`
	// Shards is the number of warehouse shards executed.
	Shards int `json:"shards"`
	// TxApplied is the total number of transactions executed across all
	// shards (multi-shard transactions count once per involved shard).
	TxApplied uint64 `json:"tx_applied"`
}

// DurableResult is the -durable run's end-of-run crash-recovery
// verification: the on-disk image (the exact state a kill -9 at the end
// of the window would leave) recovered into fresh stacks and checked
// against the live deployment (durable.Recover).
type DurableResult struct {
	// Groups is the number of groups recovered and verified.
	Groups int `json:"groups"`
	// DigestsMatch reports that every recovered group's whole state —
	// protocol engine, shard, mirror and watermark, as canonical bytes —
	// is byte-identical to its live counterpart's (a mismatch fails the
	// run, so emitted reports carry true).
	DigestsMatch bool `json:"digests_match"`
	// SnapshottedGroups counts groups whose recovery restored from a
	// snapshot (the rest replayed their whole WAL: groups that took fewer
	// inputs than one cadence, in envelopes and in bytes, before the run
	// ended).
	SnapshottedGroups int `json:"snapshotted_groups"`
	// Checkpoints totals the delta checkpoint records the recoveries
	// applied on top of their snapshots.
	Checkpoints int `json:"checkpoints"`
	// ReplayedEnvelopes totals the WAL envelopes replayed across groups;
	// MaxReplayedEnvelopes is the worst single group. Each group's replay
	// equals its records since the last checkpoint — the checkpoint-age
	// bound (checked, a violation fails the run).
	ReplayedEnvelopes    int `json:"replayed_envelopes"`
	MaxReplayedEnvelopes int `json:"max_replayed_envelopes"`
	// MaxReplayedBytes is the most input-record bytes one group replayed:
	// below the cadence's byte budget (SnapshotEvery KiB) and one record.
	MaxReplayedBytes int `json:"max_replayed_bytes"`
	// RecoveryMeanUs and RecoveryMaxUs summarize per-group recovery
	// wall-clock time (restore + replay).
	RecoveryMeanUs float64 `json:"recovery_mean_us"`
	RecoveryMaxUs  int64   `json:"recovery_max_us"`
	// TornTailBytes totals discarded torn WAL tails (0 on a healthy
	// image: the process was alive, so no write was mid-frame).
	TornTailBytes int64 `json:"torn_tail_bytes"`
}

// Result is one run's measurement. Completed/Throughput/Latency cover
// the multicast (write) path only — comparable across every report this
// repository has ever emitted; read-mix runs add the fast-path read
// counters alongside.
type Result struct {
	Completed  uint64                 `json:"completed"`
	Throughput float64                `json:"throughput_tx_s"`
	WindowSecs float64                `json:"window_s"`
	Latency    metrics.LatencySummary `json:"latency_us"`
	// Reads counts fast-path read completions in the measurement window;
	// ReadThroughput is their rate and ReadLatency their summary (often
	// single-digit microseconds — the histogram's unit stays µs, so a
	// p50 of 0 means sub-microsecond). TotalThroughput combines reads
	// and writes. Present only on runs with a read workload (-read-pct
	// or -read-workers).
	Reads           uint64                  `json:"reads,omitempty"`
	ReadThroughput  float64                 `json:"read_throughput_tx_s,omitempty"`
	TotalThroughput float64                 `json:"total_throughput_tx_s,omitempty"`
	ReadLatency     *metrics.LatencySummary `json:"read_latency_us,omitempty"`
	// ReadLatencyNs is the same distribution at nanosecond resolution:
	// the local read fast path completes in hundreds of nanoseconds,
	// which the microsecond summary above truncates to 0. ReadLatency is
	// derived from it (integer µs) for backward comparability.
	ReadLatencyNs *metrics.NsSummary `json:"read_latency_ns,omitempty"`
	// ReadsPerReplica breaks window reads down by serving replica on
	// replicated runs (-replicas >= 2): index 0 is the serving node
	// (remote KindRead transactions and lease fallbacks), index i >= 1
	// follower replica i. LeaseRefusals counts follower reads refused
	// for an expired lease (each fell back to the serving node);
	// RemoteReads counts reads that crossed the transport.
	ReadsPerReplica []uint64 `json:"reads_per_replica,omitempty"`
	LeaseRefusals   uint64   `json:"lease_refusals,omitempty"`
	RemoteReads     uint64   `json:"remote_reads,omitempty"`
	// Execute carries the store-execution measurement when the run
	// executed transactions (-execute).
	Execute *ExecuteResult `json:"execute,omitempty"`
	// Durable carries the crash-recovery verification when the run used
	// the durable backend (-durable).
	Durable *DurableResult `json:"durable,omitempty"`
	// Issued counts requests issued during the measurement window.
	// Completed counts only transactions both issued AND completed
	// inside the window (warmup carry-overs and replies landing after
	// the close are excluded), so under open loop Issued far above
	// Completed means the system fell behind the offered rate —
	// transactions were still queued, unanswered, when the window
	// closed, and the throughput figure does not credit them.
	Issued uint64 `json:"issued"`
	// Shed counts open-loop issuances refused by admission control
	// during the window: the process-level outstanding cap
	// (-max-outstanding), or with -sessions the per-session token
	// bucket and outstanding cap.
	Shed uint64 `json:"shed,omitempty"`
	// SLO is the tail-latency service-level section (-slo-ms): goodput
	// at the latency target, shed rate, queue-depth trajectory.
	SLO *SLOResult `json:"slo,omitempty"`
	// Batching statistics aggregated over all server and client nodes.
	BatchesSent   uint64  `json:"batches_sent"`
	EnvelopesSent uint64  `json:"envelopes_sent"`
	AvgBatch      float64 `json:"avg_batch"`
	LargestBatch  int     `json:"largest_batch"`
	// ClientBatches and ClientEnvelopes are the client processes' part
	// of the two sums above: request frames sent, and the requests and
	// remote reads they carried.
	ClientBatches   uint64 `json:"client_batches"`
	ClientEnvelopes uint64 `json:"client_envelopes"`
	// History is the FlexCast engines' history traffic over the run
	// (absent when no engine shipped a history node).
	History *HistoryResult `json:"history,omitempty"`
	// Stages is the sampled write-path stage-latency decomposition
	// (TraceSample > 0): one nanosecond summary per lifecycle transition,
	// telescoping to the traced end-to-end distribution.
	Stages *telemetry.StagesReport `json:"stages,omitempty"`
}

// HistoryResult is core.Stats over one run, deployment start to load
// drain: the history nodes the FlexCast engines shipped and the ones new
// at their receiver, a flush's MSG and acks apart from every other
// envelope.
type HistoryResult struct {
	NodesSentFlush uint64 `json:"nodes_sent_flush"`
	NodesSentOther uint64 `json:"nodes_sent_other"`
	NodesNewFlush  uint64 `json:"nodes_new_flush"`
	NodesNewOther  uint64 `json:"nodes_new_other"`
}

func historyResult(s core.Stats) *HistoryResult {
	if s.NodesSent == [2]uint64{} {
		return nil
	}
	return &HistoryResult{
		NodesSentFlush: s.NodesSent[1], NodesSentOther: s.NodesSent[0],
		NodesNewFlush: s.NodesNew[1], NodesNewOther: s.NodesNew[0],
	}
}

// assemble resolves the run's protocol at cfg.Groups groups and stacks
// the configured wrappers on it: the store executor (with cfg.Replicas-1
// follower read replicas per group) in execute mode, the durable backend
// rooted at cfg.DurableDir over that.
func assemble(cfg Config, mirror bool) (*deploy.Deployment, error) {
	p, err := deploy.ParseProtocol(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	d, err := deploy.New(deploy.Spec{Protocol: p, Groups: cfg.Groups})
	if err != nil {
		return nil, err
	}
	if cfg.Execute {
		d = d.WithStore(store.Config{Seed: cfg.StoreSeed}, mirror, cfg.Replicas-1, cfg.LeaseTerm)
	}
	if cfg.Durable {
		d = d.WithDurable(cfg.DurableDir, durable.Options{
			SnapshotEvery: cfg.DurableSnapshotEvery,
			FsyncEvery:    cfg.DurableFsyncEvery,
		})
	}
	return d, nil
}

// run is one executing load run.
type run struct {
	cfg   Config
	proto *deploy.Deployment

	hist      *metrics.Histogram
	tracer    *telemetry.Tracer
	completed atomic.Uint64
	issued    atomic.Uint64
	shed      atomic.Uint64
	measuring atomic.Bool
	// good counts window completions within the SLO latency target
	// (sloTargetUs, precomputed from Config.SLOMs; 0 = no SLO).
	good        atomic.Uint64
	sloTargetUs int64

	// Fast-path read accumulators (read-mix runs): window completions
	// and their latency, kept apart from the multicast counters.
	// readByReplica[i] counts window reads served by replica i of the
	// serving group (0: the serving node, locally or via remote
	// KindRead; >= 1: follower replicas). leaseRefusals counts follower
	// reads refused for an expired lease (fallen back to the serving
	// node); remoteReads counts reads that crossed the transport;
	// readRefused counts remote reads the serving node refused — a
	// contract violation that fails the run.
	readHist      *metrics.Histogram
	reads         atomic.Uint64
	readByReplica []atomic.Uint64
	leaseRefusals atomic.Uint64
	remoteReads   atomic.Uint64
	readRefused   atomic.Uint64

	// Execute-mode accumulators. typeHists/typeCommitted/typeAborted are
	// indexed by gtpcc.TxType and cover the measurement window;
	// paidCommitted tallies committed payment amounts over the WHOLE run
	// for the conservation cross-check against the warehouses' books.
	typeHists     [6]*metrics.Histogram
	typeCommitted [6]atomic.Uint64
	typeAborted   [6]atomic.Uint64
	paidCommitted atomic.Int64
	execDiverged  atomic.Uint64
	execNoVerdict atomic.Uint64

	// windowStart is the measurement window's opening instant (read by
	// loops that only need a lower bound); windowStartNs/windowEndNs
	// publish the exact window bounds for completion accounting. The
	// end is fixed at open time (start + Duration), so whether a
	// completion counts depends only on when it happened — a reply the
	// handler processes just after the window closes, or a sleep that
	// overshoots the duration, can no longer leak into (or deflate) the
	// window's counters. WindowSecs is then exactly the configured
	// duration.
	windowStart   time.Time
	windowStartNs atomic.Int64
	windowEndNs   atomic.Int64
}

// openWindow opens the measurement window at now for d.
func (r *run) openWindow(now time.Time, d time.Duration) {
	r.windowStart = now
	r.windowStartNs.Store(now.UnixNano())
	r.windowEndNs.Store(now.Add(d).UnixNano())
	r.measuring.Store(true)
}

// windowContains reports whether a transaction both issued and
// completed inside the measurement window — the completion-accounting
// predicate: Completed (and every latency sample) counts exactly the
// transactions whose full lifetime fits the window.
func (r *run) windowContains(issued, done time.Time) bool {
	start := r.windowStartNs.Load()
	return start != 0 && issued.UnixNano() >= start && done.UnixNano() <= r.windowEndNs.Load()
}

// complete records one finished transaction.
func (r *run) complete(call *client.Call[txState], now time.Time) {
	tx := &call.Data
	if tx.silent {
		return
	}
	if tx.isRead {
		// A remote read completed: served by the serving node (replica
		// 0) over the transport. A refused read means the node could not
		// satisfy a barrier derived from observed replies — the
		// delivered-prefix contract broke — and fails the run at audit.
		if call.Result != amcast.ResultCommitted {
			r.readRefused.Add(1)
			return
		}
		if !r.windowContains(tx.issued, now) {
			return
		}
		// Nanoseconds, like recordRead: one read histogram, one unit.
		lat := now.Sub(tx.issued).Nanoseconds()
		if lat < 0 {
			lat = 0
		}
		r.reads.Add(1)
		r.readHist.Record(uint64(lat))
		r.readByReplica[0].Add(1)
		r.remoteReads.Add(1)
		return
	}
	if r.cfg.Execute && tx.txType == gtpcc.Payment && call.Result == amcast.ResultCommitted {
		r.paidCommitted.Add(tx.amount)
	}
	if !r.windowContains(tx.issued, now) {
		return
	}
	r.completed.Add(1)
	lat := now.Sub(tx.issued).Microseconds()
	if lat < 0 {
		lat = 0
	}
	r.hist.Record(uint64(lat))
	if r.sloTargetUs > 0 && lat <= r.sloTargetUs {
		r.good.Add(1)
	}
	if r.cfg.Execute && tx.txType >= 1 && int(tx.txType) < len(r.typeHists) {
		r.typeHists[tx.txType].Record(uint64(lat))
		if call.Result == amcast.ResultAborted {
			r.typeAborted[tx.txType].Add(1)
		} else {
			r.typeCommitted[tx.txType].Add(1)
		}
	}
}

// Run executes one load run and returns its measurement.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Fill(); err != nil {
		return nil, err
	}
	if cfg.Durable {
		// Each run persists into a fresh directory: recovering a previous
		// run's state under a fresh client would not be a benchmark, and
		// the verification below needs to own the image.
		if cfg.DurableDir == "" {
			dir, err := os.MkdirTemp("", "flexload-durable-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			cfg.DurableDir = dir
		} else {
			if err := os.MkdirAll(cfg.DurableDir, 0o755); err != nil {
				return nil, err
			}
			dir, err := os.MkdirTemp(cfg.DurableDir, "run-")
			if err != nil {
				return nil, err
			}
			cfg.DurableDir = dir
		}
	}
	proto, err := assemble(cfg, true)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, proto: proto, hist: metrics.NewHistogram(), readHist: metrics.NewHistogram()}
	if cfg.SLOMs > 0 {
		r.sloTargetUs = int64(cfg.SLOMs * 1000)
	}
	r.tracer = telemetry.NewTracer(cfg.TraceSample, nil)
	r.readByReplica = make([]atomic.Uint64, cfg.Replicas)
	for i := range r.typeHists {
		r.typeHists[i] = metrics.NewHistogram()
	}

	histStart := core.ReadStats()
	dep, clients, err := launch(cfg, r)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	registerTelemetry(r, dep, clients)

	// Sessions stop between transactions: each returns once its in-flight
	// call has completed or expired, so the sweep outlives them.
	stop := make(chan struct{})
	stopExpire, expired := make(chan struct{}), make(chan struct{})
	go func() {
		expireLoop(clients, cfg.Timeout, stopExpire)
		close(expired)
	}()
	errCh := make(chan error, cfg.Clients*cfg.Workers+1)
	var wg sync.WaitGroup

	// The flush/garbage-collection client (paper §4.3): a closed-loop
	// flush multicast to every group on a fixed period, keeping engine
	// histories pruned during sustained load.
	if cfg.FlushEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			flushClient(clients[0], cfg, proto, stop, errCh)
		}()
	}
	for _, c := range clients {
		c := c
		for w := 0; w < cfg.ReadWorkers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				readLoop(c, w, cfg, stop, errCh)
			}()
		}
		if cfg.Rate > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				openLoop(c, cfg, stop, errCh)
			}()
			continue
		}
		for w := 0; w < cfg.Workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				closedLoop(c, w, cfg, stop, errCh)
			}()
		}
	}

	// Warm up, open the measurement window, close it, stop the load.
	// The window bounds are fixed at open time, so completion accounting
	// is exact: see run.windowContains.
	time.Sleep(cfg.Warmup)
	r.openWindow(time.Now(), cfg.Duration)
	var trajStop chan struct{}
	var trajOut chan []SLOPoint
	if cfg.SLOMs > 0 {
		trajStop = make(chan struct{})
		trajOut = make(chan []SLOPoint, 1)
		go sampleTrajectory(dep.nodes, r.windowStart, r.windowStart.Add(cfg.Duration), trajStop, trajOut)
	}
	time.Sleep(cfg.Duration)
	r.measuring.Store(false)
	windowSecs := cfg.Duration.Seconds()
	var traj []SLOPoint
	if trajStop != nil {
		close(trajStop)
		traj = <-trajOut
	}
	close(stop)
	wg.Wait()
	close(stopExpire)
	<-expired

	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	for _, c := range clients {
		// Every woken session left its wave on its way out, so the last
		// one flushed: no request waits in a client batcher.
		if n := c.wave.Load(); n != 0 {
			return nil, fmt.Errorf("loadgen: client %d: %d woken sessions never left the wave", c.idx, n)
		}
	}

	var execRes *ExecuteResult
	if cfg.Execute {
		// Drain: the store invariants are defined over quiesced state, so
		// wait for every in-flight transaction to complete before auditing.
		deadline := time.Now().Add(cfg.Timeout)
		for {
			pending := 0
			for _, c := range clients {
				pending += c.inflightLen()
			}
			if pending == 0 {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("loadgen: %d transactions still in flight %v after load stop", pending, cfg.Timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if execRes, err = r.auditExecution(); err != nil {
			return nil, err
		}
	}
	// Read before the durable check, whose recoveries replay envelopes.
	hist := historyResult(core.ReadStats().Since(histStart))
	var durRes *DurableResult
	if cfg.Durable {
		// The load has stopped and drained. Stop the nodes — the durable
		// engines' owners — so the engines can be crashed and imaged.
		dep.close()
		if durRes, err = r.verifyDurableRecovery(recoveryStack); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Completed:  r.completed.Load(),
		Issued:     r.issued.Load(),
		Shed:       r.shed.Load(),
		WindowSecs: windowSecs,
		Latency:    r.hist.Summary(),
		Execute:    execRes,
		Durable:    durRes,
		History:    hist,
	}
	if windowSecs > 0 {
		res.Throughput = float64(res.Completed) / windowSecs
	}
	if cfg.SLOMs > 0 {
		res.SLO = buildSLO(cfg.SLOMs, r.good.Load(), res.Completed, res.Issued, res.Shed, windowSecs, traj)
		res.SLO.Sessions = cfg.Sessions
	}
	if n := r.readRefused.Load(); n > 0 {
		return nil, fmt.Errorf("loadgen: %d remote reads refused by their serving node (barrier ahead of delivered prefix — the prefix contract broke)", n)
	}
	if cfg.ReadPct > 0 || cfg.ReadWorkers > 0 {
		res.Reads = r.reads.Load()
		if res.Reads == 0 {
			// A read-mix run that measured no reads is not a
			// measurement — and would emit a report the validator
			// rejects. Fail loudly instead (lengthen the window).
			return nil, fmt.Errorf("loadgen: read workload configured but no read completions measured in the %.2fs window", windowSecs)
		}
		rln := r.readHist.SummaryNs()
		res.ReadLatencyNs = &rln
		rl := rln.ToMicros()
		res.ReadLatency = &rl
		if windowSecs > 0 {
			res.ReadThroughput = float64(res.Reads) / windowSecs
			res.TotalThroughput = res.Throughput + res.ReadThroughput
		}
		if cfg.Replicas > 1 {
			res.ReadsPerReplica = make([]uint64, cfg.Replicas)
			for i := range r.readByReplica {
				res.ReadsPerReplica[i] = r.readByReplica[i].Load()
			}
			res.LeaseRefusals = r.leaseRefusals.Load()
			res.RemoteReads = r.remoteReads.Load()
		}
	}
	stats := runtime.SumStats(dep.nodes, clientBatchers(clients))
	res.BatchesSent = stats.Batches
	res.EnvelopesSent = stats.Envelopes
	res.AvgBatch = stats.AvgBatch()
	res.LargestBatch = stats.MaxBatch
	cs := runtime.SumStats(nil, clientBatchers(clients))
	res.ClientBatches, res.ClientEnvelopes = cs.Batches, cs.Envelopes
	res.Stages = r.tracer.Report()
	return res, nil
}
