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
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flexcast/amcast"
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
	// FlushInterval is the batch flush period (default 500µs, matching
	// the runtime's own default).
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
	// executors and digest-compared against the live shards, and the
	// replay length is checked against the live engines' records-since-
	// last-snapshot (the snapshot-age recovery bound). Requires Execute.
	Durable bool
	// DurableDir is the persistence root (each run persists into a fresh
	// subdirectory so successive runs never recover each other's state;
	// empty: a temp dir removed when the run ends).
	DurableDir string
	// DurableSnapshotEvery and DurableFsyncEvery override the backend's
	// snapshot and fsync cadences (0: the durable package defaults,
	// 256 and 64).
	DurableSnapshotEvery int
	DurableFsyncEvery    int
	// Adaptive runs every server node under the latency-targeted
	// adaptive batching controller (runtime.AdaptiveConfig, DESIGN.md
	// §1h): MaxBatch/FlushInterval become the ceiling of the operating
	// range instead of the fixed operating point, and each node steers
	// between the per-envelope floor and that ceiling on its own queue
	// depth.
	Adaptive bool
	// SLOMs, when > 0, adds the tail-latency SLO section to the result:
	// goodput at p99 <= SLOMs milliseconds, shed rate, and the
	// controller trajectory over the measurement window.
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
	if c.FlushInterval == 0 {
		c.FlushInterval = 500 * time.Microsecond
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
		return fmt.Errorf("loadgen: -durable requires -execute (crash recovery is verified against shard digests)")
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
// of the window would leave) recovered into fresh executors and checked
// against the live deployment.
type DurableResult struct {
	// Groups is the number of groups recovered and verified.
	Groups int `json:"groups"`
	// DigestsMatch reports that every recovered shard reached a
	// byte-identical digest with its live counterpart (a mismatch fails
	// the run, so emitted reports carry true).
	DigestsMatch bool `json:"digests_match"`
	// SnapshottedGroups counts groups whose recovery restored from a
	// snapshot file (the rest replayed their whole WAL — short runs or
	// cold groups that never hit the cadence).
	SnapshottedGroups int `json:"snapshotted_groups"`
	// ReplayedEnvelopes totals the WAL envelopes replayed across groups;
	// MaxReplayedEnvelopes is the worst single group. Each group's replay
	// equals its records since the last snapshot — the snapshot-age bound
	// (checked, a violation fails the run).
	ReplayedEnvelopes    int `json:"replayed_envelopes"`
	MaxReplayedEnvelopes int `json:"max_replayed_envelopes"`
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
	// at the latency target, shed rate, controller trajectory.
	SLO *SLOResult `json:"slo,omitempty"`
	// Batching statistics aggregated over all server and client nodes.
	BatchesSent   uint64  `json:"batches_sent"`
	EnvelopesSent uint64  `json:"envelopes_sent"`
	AvgBatch      float64 `json:"avg_batch"`
	LargestBatch  int     `json:"largest_batch"`
	// Stages is the sampled write-path stage-latency decomposition
	// (TraceSample > 0): one nanosecond summary per lifecycle transition,
	// telescoping to the traced end-to-end distribution.
	Stages *telemetry.StagesReport `json:"stages,omitempty"`
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

// txState tracks one in-flight transaction at its issuing client.
type txState struct {
	remaining map[amcast.GroupID]bool
	issued    time.Time
	done      chan struct{} // closed-loop sessions wait on it; nil open-loop
	// silent transactions (the flush client's) stay out of the metrics.
	silent bool
	// isRead marks a remote KindRead transaction: measured in the read
	// histogram, never in the multicast counters.
	isRead bool
	// txType and amount carry execute-mode detail for per-type stats
	// and the payment cross-check.
	txType gtpcc.TxType
	amount int64
	// result folds the per-group execution verdicts; replies that
	// disagree bump the run's divergence counter.
	result uint8
	// sess is the virtual session that admitted this transaction
	// (session-multiplexed open loop); completion releases its
	// outstanding slot. nil outside session mode.
	sess *session
}

// clientProc is one client process: its own node id on the transport, a
// request batcher fed by a dispatcher goroutine that coalesces the
// process's concurrent sessions (the same adaptive batching as
// runtime.Node — batches form only when sessions outpace the transport,
// and an idle client flushes immediately), and the in-flight transaction
// table its reply handler resolves.
type clientProc struct {
	idx     int
	id      amcast.NodeID
	batcher *runtime.Batcher
	out     chan amcast.Message

	mu       sync.Mutex
	inflight map[amcast.MsgID]*txState
	// prefix is this client process's session barrier: the delivered
	// prefix observed per group from replies (sequence numbers plus
	// piggybacked watermarks) and from read results — the
	// read-your-writes barrier of its reads, valid at whichever replica
	// serves them. Guarded by mu.
	prefix amcast.PrefixTracker

	// rr round-robins the process's reads over its group's follower
	// replicas; readSeq allocates remote-read message ids.
	rr      atomic.Uint64
	readSeq atomic.Uint64

	// sessions is the process's virtual session table (session-
	// multiplexed open loop; nil otherwise). sessBase is the id of
	// sessions[0]; replies carrying a session id resolve through it.
	sessions []*session
	sessBase uint64

	run *run
}

// sessionOf resolves a reply's session id to this process's session,
// or nil (no session flag, or another client's id — batched fan-in can
// only misroute if the transport breaks, and a nil just skips the
// per-session fold).
func (c *clientProc) sessionOf(m amcast.Message) *session {
	if m.Flags&amcast.FlagSession == 0 || len(c.sessions) == 0 {
		return nil
	}
	idx := m.Session - c.sessBase
	if idx >= uint64(len(c.sessions)) {
		return nil
	}
	return c.sessions[idx]
}

// readSeqBase puts remote-read message ids in their own space: above
// every worker's id space (worker << 24) and below the flush client's
// (1 << 38).
const readSeqBase = uint64(1) << 37

// foldRead raises the client's barrier at g to a read's serving
// watermark — the monotonic-reads half of the session guarantee (a
// later read at a lagging replica waits until it catches up to state
// this client has already seen).
func (c *clientProc) foldRead(g amcast.GroupID, watermark uint64) {
	c.mu.Lock()
	c.prefix.Fold(g, watermark)
	c.mu.Unlock()
}

// recordRead measures one synchronously served read (local or
// follower; remote reads are measured at reply completion instead).
// The read histogram records nanoseconds: the local fast path completes
// in hundreds of ns, which microsecond buckets truncate to zero.
func (c *clientProc) recordRead(start time.Time, replica int32) {
	if !c.run.measuring.Load() || start.Before(c.run.windowStart) {
		return
	}
	lat := time.Since(start).Nanoseconds()
	if lat < 0 {
		lat = 0
	}
	c.run.reads.Add(1)
	c.run.readHist.Record(uint64(lat))
	c.run.readByReplica[replica].Add(1)
}

// observedPrefix returns the client's delivered-prefix barrier for g.
func (c *clientProc) observedPrefix(g amcast.GroupID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prefix.Prefix(g)
}

// dispatcher drains queued requests into the batcher and flushes when
// the queue runs dry.
func (c *clientProc) dispatcher(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		var m amcast.Message
		select {
		case m = <-c.out:
		case <-stop:
			// Sessions have unblocked, but one may have queued a final
			// request the select raced past: drain before exiting, or
			// the execute-mode drain phase waits on a never-sent tx.
			for {
				select {
				case m := <-c.out:
					c.addRequest(m)
				default:
					c.batcher.FlushAll()
					return
				}
			}
		}
		c.addRequest(m)
	drain:
		for {
			select {
			case more := <-c.out:
				c.addRequest(more)
			default:
				break drain
			}
		}
		c.batcher.FlushAll()
	}
}

func (c *clientProc) addRequest(m amcast.Message) {
	if m.Flags&amcast.FlagRead != 0 {
		// A remote read: straight to the serving node (no multicast
		// entry routing), with the client's barrier taken at send time —
		// at least as fresh as at issue time, so still read-your-writes.
		g := m.Dst[0]
		c.batcher.Add(amcast.GroupNode(g), amcast.Envelope{
			Kind: amcast.KindRead, From: c.id, Msg: m, TS: c.observedPrefix(g),
		})
		return
	}
	for _, to := range c.run.proto.Route(m) {
		c.batcher.Add(to, amcast.Envelope{Kind: amcast.KindRequest, From: c.id, Msg: m})
	}
}

func (c *clientProc) onReplies(envs []amcast.Envelope) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, env := range envs {
		if env.Kind != amcast.KindReply {
			continue
		}
		c.prefix.Observe(env)
		if s := c.sessionOf(env.Msg); s != nil {
			// The session's own barrier advances on every reply carrying
			// its id — per-session read-your-writes over the shared conn.
			s.observe(env)
		}
		tx, ok := c.inflight[env.Msg.ID]
		if !ok || !tx.remaining[env.From.Group()] {
			continue
		}
		if env.Result != amcast.ResultNone {
			if tx.result == amcast.ResultNone {
				tx.result = env.Result
			} else if tx.result != env.Result {
				// Involved groups reached different verdicts: the
				// deterministic one-shot execution contract is broken.
				c.run.execDiverged.Add(1)
			}
		} else if c.run.cfg.Execute && !tx.silent {
			// An executing deployment replied without a verdict: that
			// shard never executed the transaction (partial execution) —
			// as hard a contract violation as diverging verdicts.
			c.run.execNoVerdict.Add(1)
		}
		delete(tx.remaining, env.From.Group())
		if len(tx.remaining) > 0 {
			continue
		}
		delete(c.inflight, env.Msg.ID)
		if !tx.silent && !tx.isRead {
			c.run.tracer.Finish(env.Msg.ID)
		}
		if tx.sess != nil {
			tx.sess.release()
		}
		c.run.complete(tx, now)
		if tx.done != nil {
			close(tx.done)
		}
	}
}

// inflightLen reports the client's in-flight transaction count.
func (c *clientProc) inflightLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// issue registers one transaction and queues it to the dispatcher.
func (c *clientProc) issue(m amcast.Message, meta txMeta, closedLoop, silent bool) *txState {
	tx := &txState{
		remaining: make(map[amcast.GroupID]bool, len(m.Dst)),
		silent:    silent,
		isRead:    meta.isRead,
		txType:    meta.typ,
		amount:    meta.amount,
		sess:      meta.sess,
	}
	for _, g := range m.Dst {
		tx.remaining[g] = true
	}
	if closedLoop {
		tx.done = make(chan struct{})
	}
	c.mu.Lock()
	tx.issued = time.Now()
	c.inflight[m.ID] = tx
	c.mu.Unlock()
	if !silent && !meta.isRead {
		// Trace records exist only for measured writes: Begin before the
		// dispatcher can send, so no downstream stamp precedes it. Flush
		// multicasts (silent) and reads never begin a record, so their
		// ids' stamps are dropped at lookup.
		c.run.tracer.Begin(m.ID)
		if c.run.measuring.Load() {
			// Issued covers the multicast (write) path only; reads have
			// their own counters.
			c.run.issued.Add(1)
		}
	}
	c.out <- m
	return tx
}

// txMeta carries execute-mode issue detail into the in-flight table.
type txMeta struct {
	typ    gtpcc.TxType
	amount int64
	isRead bool
	sess   *session
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
func (r *run) complete(tx *txState, now time.Time) {
	if tx.silent {
		return
	}
	if tx.isRead {
		// A remote read completed: served by the serving node (replica
		// 0) over the transport. A refused read means the node could not
		// satisfy a barrier derived from observed replies — the
		// delivered-prefix contract broke — and fails the run at audit.
		if tx.result != amcast.ResultCommitted {
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
	if r.cfg.Execute && tx.txType == gtpcc.Payment && tx.result == amcast.ResultCommitted {
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
		if tx.result == amcast.ResultAborted {
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

	dep, clients, err := launch(cfg, r)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	registerTelemetry(r, dep, clients)

	// Sessions stop first; dispatchers stop after every session has
	// unblocked, so an issue() in flight is always drained.
	stop := make(chan struct{})
	stopDispatch := make(chan struct{})
	errCh := make(chan error, cfg.Clients*cfg.Workers+1)
	var wg sync.WaitGroup
	var dispatchWG sync.WaitGroup
	for _, c := range clients {
		dispatchWG.Add(1)
		go c.dispatcher(stopDispatch, &dispatchWG)
	}

	// The flush/garbage-collection client (paper §4.3): a closed-loop
	// flush multicast to every group on a fixed period, keeping engine
	// histories pruned during sustained load.
	if cfg.FlushEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			flushLoop(clients[0], cfg, proto, stop, errCh)
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
		go sampleTrajectory(dep.nodes, r.windowStart, trajStop, trajOut)
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
	close(stopDispatch)
	dispatchWG.Wait()

	select {
	case err := <-errCh:
		return nil, err
	default:
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
	var durRes *DurableResult
	if cfg.Durable {
		// The load has stopped and drained. Stop the nodes — the durable
		// engines' owners — so the engines can be closed and imaged; the
		// live shards stay readable to compare against.
		dep.close()
		if durRes, err = r.verifyDurableRecovery(); err != nil {
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
	res.Stages = r.tracer.Report()
	return res, nil
}

// auditExecution runs the post-drain execute-mode checks and assembles
// the execution measurement.
func (r *run) auditExecution() (*ExecuteResult, error) {
	if n := r.execDiverged.Load(); n > 0 {
		return nil, fmt.Errorf("loadgen: %d transactions received diverging verdicts across involved groups", n)
	}
	if n := r.execNoVerdict.Load(); n > 0 {
		return nil, fmt.Errorf("loadgen: %d replies carried no execution verdict (a shard skipped executing a transaction)", n)
	}
	execs := r.proto.Executors
	if len(execs) == 0 {
		return nil, fmt.Errorf("loadgen: execute mode deployed no store executors")
	}
	res := &ExecuteResult{
		PerType: make(map[string]*TxTypeStats),
		Shards:  len(execs),
	}
	shards := make([]*store.Shard, 0, len(execs))
	global := sha256.New()
	var banked int64
	for _, g := range r.proto.Groups {
		ex := execs[g]
		if err := ex.CheckMirror(); err != nil {
			return nil, err
		}
		sh := ex.Shard()
		shards = append(shards, sh)
		d := sh.Digest()
		global.Write(d[:])
		banked += sh.Totals().WarehouseYTD
		res.TxApplied += sh.Applied()
	}
	res.ReplicaDigestsOK = true
	if err := store.CheckInvariants(shards); err != nil {
		return nil, err
	}
	res.InvariantsOK = true
	res.GlobalDigest = hex.EncodeToString(global.Sum(nil))
	res.PaymentsBanked = banked
	if paid := r.paidCommitted.Load(); paid != banked {
		return nil, fmt.Errorf("loadgen: clients committed payments totalling %d but warehouses banked %d (a payment applied without completing, or vice versa)",
			paid, banked)
	}
	var completed uint64
	for typ := gtpcc.NewOrder; typ <= gtpcc.StockLevel; typ++ {
		c, a := r.typeCommitted[typ].Load(), r.typeAborted[typ].Load()
		if c+a == 0 {
			continue
		}
		res.PerType[typ.String()] = &TxTypeStats{
			Committed: c,
			Aborted:   a,
			Latency:   r.typeHists[typ].Summary(),
		}
		completed += c + a
		res.Aborted += a
	}
	if completed > 0 {
		res.AbortRate = float64(res.Aborted) / float64(completed)
	}
	return res, nil
}

// verifyDurableRecovery is the -durable run's ending, called once the
// nodes have stopped: for every group, close the durable engine (which
// waits for its persist job in flight), copy the on-disk state as it
// stands — the image a kill -9 would leave, since WAL appends hit the
// page cache unbuffered — recover it into a fresh executor, and check
// that (a) the recovered shard digest is byte-identical to the live one
// and (b) the replay length equals the live engine's records since its
// last snapshot, i.e. recovery work is bounded by snapshot age, not run
// length. Either check failing fails the run.
func (r *run) verifyDurableRecovery() (*DurableResult, error) {
	// The recovering stack is the live one over the crash images: no
	// mirror or followers to populate, and it only reads, so never fsyncs.
	cfg := r.cfg
	images, err := os.MkdirTemp("", "flexload-crash-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(images)
	cfg.Replicas, cfg.DurableDir, cfg.DurableFsyncEvery = 1, images, -1
	fresh, err := assemble(cfg, false)
	if err != nil {
		return nil, err
	}
	res := &DurableResult{DigestsMatch: true}
	var totalElapsed time.Duration
	for _, g := range r.proto.Groups {
		de := r.proto.Durables[g]
		live := r.proto.Executors[g]
		if de == nil || live == nil {
			return nil, fmt.Errorf("loadgen: group %d has no durable engine or executor", g)
		}
		if err := de.Close(); err != nil {
			return nil, fmt.Errorf("loadgen: group %d durable backend failed mid-run: %w", g, err)
		}
		if err := copyDirImage(deploy.GroupDir(r.cfg.DurableDir, g), deploy.GroupDir(images, g)); err != nil {
			return nil, err
		}
		if _, err := fresh.NewEngine(g); err != nil {
			return nil, fmt.Errorf("loadgen: group %d crash-image recovery: %w", g, err)
		}
		rde := fresh.Durables[g]
		stats := rde.Recovery()
		rde.Close()

		if got, want := fresh.Executors[g].Shard().Digest(), live.Shard().Digest(); got != want {
			return nil, fmt.Errorf("loadgen: group %d recovered shard digest diverges from live state", g)
		}
		if since := de.SinceSnapshot(); stats.ReplayedEnvelopes != since {
			return nil, fmt.Errorf("loadgen: group %d replayed %d envelopes but %d were appended since the last snapshot (snapshot age does not bound recovery)",
				g, stats.ReplayedEnvelopes, since)
		}
		res.Groups++
		if stats.SnapshotEpoch > 0 {
			res.SnapshottedGroups++
		}
		res.ReplayedEnvelopes += stats.ReplayedEnvelopes
		if stats.ReplayedEnvelopes > res.MaxReplayedEnvelopes {
			res.MaxReplayedEnvelopes = stats.ReplayedEnvelopes
		}
		res.TornTailBytes += stats.TornTailBytes
		totalElapsed += stats.Elapsed
		if us := stats.Elapsed.Microseconds(); us > res.RecoveryMaxUs {
			res.RecoveryMaxUs = us
		}
	}
	if res.Groups > 0 {
		res.RecoveryMeanUs = float64(totalElapsed.Microseconds()) / float64(res.Groups)
	}
	return res, nil
}

// copyDirImage copies one group's durable directory into the crash
// image the recovery verification owns (recovering in place would race
// the live engine's open WAL). File to file, so that the kernel does the
// copying: a journal is tens of megabytes after a few seconds.
func copyDirImage(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// doRead serves one read-only transaction under the configured
// routing, at the client's session barrier:
//
//   - Replicas <= 1: the PR 4 local fast path — the client is
//     co-located with the one serving node and reads it directly.
//   - FollowerReads: the client reads its local follower replica
//     (round-robin over the group's followers) through the lease gate;
//     an expired lease falls back to the remote serving node and is
//     counted.
//   - otherwise (the leader-only baseline): the client is NOT
//     co-located with the serving node — the read crosses the
//     transport as a KindRead transaction and the reply carries the
//     value and watermark back.
//
// Every serve folds the read's watermark into the session barrier
// (monotonic reads across replicas). A non-nil dl selects closed-loop
// semantics for the remote form (wait for the reply under the caller's
// deadline); synchronous serves ignore it.
func (c *clientProc) doRead(gen *gtpcc.Gen, cfg Config, stop <-chan struct{}, dl *deadline) error {
	tx := gen.NextRead()
	if cfg.Replicas <= 1 {
		ex := c.run.proto.Executors[tx.Home]
		if ex == nil {
			return fmt.Errorf("loadgen: no executor for warehouse %d", tx.Home)
		}
		start := time.Now()
		res, err := ex.Read(tx, c.observedPrefix(tx.Home), cfg.Timeout)
		if err != nil {
			return err
		}
		c.foldRead(tx.Home, res.Watermark)
		c.recordRead(start, 0)
		return nil
	}
	if cfg.FollowerReads {
		reps := c.run.proto.Followers[tx.Home]
		if len(reps) == 0 {
			return fmt.Errorf("loadgen: no follower replicas for warehouse %d", tx.Home)
		}
		rep := reps[c.rr.Add(1)%uint64(len(reps))]
		start := time.Now()
		res, err := rep.Read(tx, c.observedPrefix(tx.Home), cfg.Timeout)
		if err == nil {
			c.foldRead(tx.Home, res.Watermark)
			c.recordRead(start, rep.Idx())
			return nil
		}
		if !errors.Is(err, store.ErrLeaseExpired) {
			return err
		}
		c.run.leaseRefusals.Add(1)
		// Lease lapsed: fall back to the serving node, remotely.
	}
	return c.remoteRead(tx, cfg, stop, dl)
}

// remoteRead ships one read to the serving node as a KindRead
// transaction. With a deadline (closed loop) it blocks for the reply;
// the reply's watermark folds into the session barrier via the ordinary
// reply path (onReplies), and completion lands in the read histogram
// (complete).
func (c *clientProc) remoteRead(tx gtpcc.Tx, cfg Config, stop <-chan struct{}, dl *deadline) error {
	m := amcast.Message{
		ID:      amcast.NewMsgID(c.idx, readSeqBase+c.readSeq.Add(1)),
		Sender:  c.id,
		Dst:     []amcast.GroupID{tx.Home},
		Flags:   amcast.FlagRead,
		Payload: gtpcc.EncodeTx(tx),
	}
	st := c.issue(m, txMeta{typ: tx.Type, isRead: true}, dl != nil, false)
	if dl != nil && dl.await(st.done, cfg.Timeout, stop) == waitTimedOut {
		return fmt.Errorf("loadgen: client %d remote read %s to warehouse %d timed out after %v",
			c.idx, m.ID, tx.Home, cfg.Timeout)
	}
	return nil
}

// deadline is one session goroutine's reusable timeout. time.After
// would arm a fresh timer per transaction, and under go.mod's go 1.22
// timer semantics an unfired timer stays reachable until it fires: a
// closed loop at 80k tx/s pinned 30 s worth of them.
type deadline struct{ t *time.Timer }

type waitResult int

const (
	waitDone waitResult = iota
	waitTimedOut
	waitStopped
)

// await blocks until done closes, the timeout passes or stop closes.
func (d *deadline) await(done <-chan struct{}, timeout time.Duration, stop <-chan struct{}) waitResult {
	if d.t == nil {
		d.t = time.NewTimer(timeout)
	} else {
		d.t.Reset(timeout)
	}
	res := waitDone
	select {
	case <-done:
	case <-d.t.C:
		return waitTimedOut
	case <-stop:
		res = waitStopped
	}
	if !d.t.Stop() {
		// Fired after the select chose: drain, so the next Reset starts
		// from an empty channel.
		select {
		case <-d.t.C:
		default:
		}
	}
	return res
}

// readLoop is one dedicated read-only session: reads back-to-back at
// the session barrier under the configured routing, measuring read
// capacity while the write workload runs alongside.
func readLoop(c *clientProc, worker int, cfg Config, stop <-chan struct{}, errCh chan<- error) {
	gen, err := newGen(c, cfg.Workers+worker, cfg)
	if err != nil {
		sendErr(errCh, err)
		return
	}
	var dl deadline
	for {
		select {
		case <-stop:
			return
		default:
		}
		if err := c.doRead(gen, cfg, stop, &dl); err != nil {
			sendErr(errCh, err)
			return
		}
	}
}

// readRoll decides whether an iteration issues a fast-path read; the
// rng is private to the session, so the mix is deterministic per seed.
func readRoll(rng *rand.Rand, cfg Config) bool {
	return cfg.ReadPct > 0 && rng.Float64()*100 < cfg.ReadPct
}

// readRNG derives a session's read-mix coin; its stream is independent
// of the workload generator's.
func readRNG(cfg Config, client, worker int) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed ^ 0x5EED_BEEF + int64(client)*15485863 + int64(worker)*32452843))
}

// closedLoop is one session: issue, wait for every destination's reply,
// repeat. With a read mix, ReadPct percent of iterations issue a
// fast-path read instead of a multicast.
func closedLoop(c *clientProc, worker int, cfg Config, stop <-chan struct{}, errCh chan<- error) {
	gen, err := newGen(c, worker, cfg)
	if err != nil {
		sendErr(errCh, err)
		return
	}
	reads := readRNG(cfg, c.idx, worker)
	seq := uint64(worker) << 24 // per-worker id space within the client
	var dl deadline
	for {
		select {
		case <-stop:
			return
		default:
		}
		if readRoll(reads, cfg) {
			if err := c.doRead(gen, cfg, stop, &dl); err != nil {
				sendErr(errCh, err)
				return
			}
			continue
		}
		seq++
		m, meta := nextMessage(c, gen, cfg, seq)
		switch dl.await(c.issue(m, meta, true, false).done, cfg.Timeout, stop) {
		case waitTimedOut:
			sendErr(errCh, fmt.Errorf("loadgen: client %d worker %d: tx %s to %v timed out after %v",
				c.idx, worker, m.ID, m.Dst, cfg.Timeout))
			return
		case waitStopped:
			return
		}
	}
}

// openLoop issues at a fixed rate per client process, completions
// resolving asynchronously through the reply handler. Pacing is
// burst-based: a millisecond ticker issues however many transactions the
// elapsed time owes, so the offered rate is honored far beyond the
// ticker resolution. With -sessions the loop runs session-multiplexed
// instead (openLoopSessions).
func openLoop(c *clientProc, cfg Config, stop <-chan struct{}, errCh chan<- error) {
	if cfg.Sessions > 0 {
		openLoopSessions(c, cfg, stop, errCh)
		return
	}
	gen, err := newGen(c, 0, cfg)
	if err != nil {
		sendErr(errCh, err)
		return
	}
	reads := readRNG(cfg, c.idx, 0)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	start := time.Now()
	seq := uint64(0)
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			owed := uint64(cfg.Rate * now.Sub(start).Seconds())
			for seq < owed {
				seq++
				if readRoll(reads, cfg) {
					// A read slot: local and follower reads serve
					// synchronously and never occupy the outstanding
					// budget; remote reads issue asynchronously and
					// resolve through the reply handler (they do
					// occupy the in-flight table until answered).
					if err := c.doRead(gen, cfg, stop, nil); err != nil {
						sendErr(errCh, err)
						return
					}
					continue
				}
				c.mu.Lock()
				outstanding := len(c.inflight)
				c.mu.Unlock()
				if outstanding >= cfg.MaxOutstanding {
					if c.run.measuring.Load() {
						c.run.shed.Add(owed - seq + 1)
					}
					seq = owed
					break
				}
				m, meta := nextMessage(c, gen, cfg, seq)
				c.issue(m, meta, false, false)
			}
		}
	}
}

// openLoopSessions is the session-multiplexed open loop (-sessions):
// the process's offered rate splits evenly across its virtual sessions
// — round-robin, so the issue order over the shared connection
// interleaves sessions while each session's own requests stay FIFO —
// and every issuance passes that session's admission gate (token
// bucket + outstanding cap, admission.go). A refused issuance is shed
// on the spot and the loop moves on: one stalled session (its admitted
// transactions stuck behind a latency spike) cannot make the process
// queue work for it, and cannot stop the other sessions from issuing.
// Admitted requests carry the session id on the envelope (FlagSession),
// so replies resolve the session's barrier and outstanding slot.
func openLoopSessions(c *clientProc, cfg Config, stop <-chan struct{}, errCh chan<- error) {
	gen, err := newGen(c, 0, cfg)
	if err != nil {
		sendErr(errCh, err)
		return
	}
	reads := readRNG(cfg, c.idx, 0)
	gate := newAdmission(cfg)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	start := time.Now()
	seq := uint64(0)
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			owed := uint64(cfg.Rate * now.Sub(start).Seconds())
			nowNs := now.UnixNano()
			for seq < owed {
				seq++
				if readRoll(reads, cfg) {
					if err := c.doRead(gen, cfg, stop, nil); err != nil {
						sendErr(errCh, err)
						return
					}
					continue
				}
				s := c.sessions[seq%uint64(len(c.sessions))]
				if !gate.admit(s, nowNs) {
					if c.run.measuring.Load() {
						c.run.shed.Add(1)
					}
					continue
				}
				m, meta := nextMessage(c, gen, cfg, seq)
				m.Flags |= amcast.FlagSession
				m.Session = s.id
				meta.sess = s
				c.issue(m, meta, false, false)
			}
		}
	}
}

// flushLoop issues one FlagFlush multicast to all groups per period,
// waiting for delivery everywhere before the next (the distinguished
// flush process of §4.3). A flush that times out fails the run: a
// benchmark silently running without garbage collection would publish
// numbers for a different system.
func flushLoop(c *clientProc, cfg Config, proto *deploy.Deployment, stop <-chan struct{}, errCh chan<- error) {
	t := time.NewTicker(cfg.FlushEvery)
	defer t.Stop()
	seq := uint64(1) << 38 // clear of every worker's id space
	var dl deadline
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		seq++
		m := amcast.Message{
			ID:     amcast.NewMsgID(c.idx, seq),
			Sender: c.id,
			Dst:    append([]amcast.GroupID(nil), proto.Groups...),
			Flags:  amcast.FlagFlush,
		}
		switch dl.await(c.issue(m, txMeta{}, true, true).done, cfg.Timeout, stop) {
		case waitTimedOut:
			sendErr(errCh, fmt.Errorf("loadgen: flush multicast %s timed out after %v (GC stalled)",
				m.ID, cfg.Timeout))
			return
		case waitStopped:
			return
		}
	}
}

func newGen(c *clientProc, worker int, cfg Config) (*gtpcc.Gen, error) {
	home := c.run.proto.Groups[c.idx%len(c.run.proto.Groups)]
	rng := rand.New(rand.NewSource(cfg.Seed + int64(c.idx)*7919 + int64(worker)*104729))
	return gtpcc.New(gtpcc.Config{
		Home:       home,
		Nearest:    c.run.proto.Nearest(home),
		Locality:   cfg.Locality,
		GlobalOnly: cfg.GlobalOnly,
		Zipf:       cfg.Zipf,
	}, rng)
}

func nextMessage(c *clientProc, gen *gtpcc.Gen, cfg Config, seq uint64) (amcast.Message, txMeta) {
	tx := gen.Next()
	m := amcast.Message{
		ID:     amcast.NewMsgID(c.idx, seq),
		Sender: c.id,
		Dst:    tx.Dst,
	}
	if cfg.Execute {
		if cfg.PayloadSize > tx.PayloadSize {
			tx.PayloadSize = cfg.PayloadSize // padding only; detail wins otherwise
		}
		m.Payload = gtpcc.EncodeTx(tx)
		return m, txMeta{typ: tx.Type, amount: tx.Amount}
	}
	size := tx.PayloadSize
	if cfg.PayloadSize > 0 {
		size = cfg.PayloadSize
	}
	m.Payload = make([]byte, size)
	return m, txMeta{typ: tx.Type}
}

func sendErr(ch chan<- error, err error) {
	select {
	case ch <- err:
	default:
	}
}
