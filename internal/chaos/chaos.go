// Package chaos is a deterministic fault-injection and randomized
// protocol-exploration layer over the discrete-event simulator
// (internal/sim). It subjects the atomic multicast protocols to the
// failure scenarios the paper's model admits — message retransmission
// delays, duplication, reordering jitter, transient partitions with
// auto-heal, and group-server crash/recovery through the
// amcast.SnapshotEngine API — and validates every explored schedule
// against the paper's safety properties using the internal/trace
// checkers:
//
//   - acyclic global delivery order (plus prefix order),
//   - agreement: every multicast is delivered by all of its destinations
//     once the run quiesces, crashes notwithstanding,
//   - integrity: at-most-once delivery, only at destinations,
//   - genuineness (minimality): only the sender, the destinations and
//     previously involved groups communicate (genuine protocols only).
//
// All randomness is drawn from a per-schedule seed, so any reported
// violation reproduces exactly from its seed (RunSchedule), in the spirit
// of systematic state-space exploration for protocol middleware (CADP,
// arXiv:2111.08203) and simulation testing of distributed databases.
//
// The fault model preserves the protocols' channel assumptions: links are
// reliable FIFO (TCP), so "dropping" a message manifests as a
// retransmission delay with head-of-line blocking, a transient partition
// delays traffic until it heals, and a crashed server loses no inbound
// traffic — the network parks it until restart — but does lose its
// volatile state, which it must rebuild from its last snapshot plus a
// write-ahead input log (the same recovery shape internal/smr implements
// with Paxos log replay).
package chaos

import (
	"fmt"
	"math/rand"

	"flexcast/amcast"
	"flexcast/internal/sim"
)

// EngineFactory builds the protocol engine of one group. Engines must
// implement amcast.SnapshotEngine so crash/recovery can be explored.
type EngineFactory func(g amcast.GroupID) (amcast.SnapshotEngine, error)

// Deployment describes the protocol under test; internal/harness builds
// one per protocol (FlexCast, Skeen's, hierarchical).
type Deployment struct {
	// Name labels the deployment in reports.
	Name string
	// Groups is the group set.
	Groups []amcast.GroupID
	// Factory builds one engine per group.
	Factory EngineFactory
	// Route maps a message to its protocol entry node(s).
	Route func(m amcast.Message) []amcast.NodeID
	// Minimality enables the genuineness audit (false for the
	// non-genuine hierarchical protocol).
	Minimality bool
	// Decode rebuilds an engine snapshot from its binary form — the
	// protocol half of the durable on-disk format. Required for
	// Options.Durable, unused otherwise.
	Decode func(data []byte) (amcast.Snapshot, error)
	// Instrument, when non-nil, is called once per schedule right after
	// the engines are built — the hook execute-mode deployments use to
	// attach execution observers and follower read replicas
	// (store.Executor). now is the schedule's simulator clock (the lease
	// clock for follower read leases). The returned Instrumentation
	// provides the schedule's execution-level hooks: the
	// post-quiescence audit, optionally the read fast path the
	// explorer's clients exercise, and the rebind durable recovery needs.
	Instrument func(engines map[amcast.GroupID]amcast.SnapshotEngine, now func() sim.Time) *Instrumentation
}

// Instrumentation carries one schedule's execution-level hooks.
type Instrumentation struct {
	// FastRead, when non-nil, executes one read-only fast-path
	// transaction at group g, requiring barrier (the issuing client's
	// observed delivered prefix) — served either by the group's node or,
	// on deployments with follower read replicas, by a lease-gated
	// follower chosen from the rng. The rng derives the read
	// deterministically from the schedule seed; now is the simulator's
	// current time (the lease clock). Returns:
	//
	//   - (true, nil): the read served;
	//   - (false, nil): a follower refused for want of a valid lease —
	//     the correct behavior after its grantor crashed or partitioned,
	//     counted (ScheduleResult.LeaseRefusals), never a violation;
	//   - (_, err): a contract violation — including a barrier the
	//     serving replica cannot satisfy, which in the simulator means
	//     the delivered-prefix contract broke — reported as the
	//     schedule's violation.
	FastRead func(rng *rand.Rand, g amcast.GroupID, barrier uint64, now sim.Time) (served bool, err error)
	// Rebind re-attaches group g's instrumentation to eng, the fresh
	// engine a durable recovery rebuilt from disk (Options.Durable): the
	// pre-crash engine and whatever was attached to it are gone. It runs
	// after the WAL replay, so replayed deliveries are not observed twice.
	// Required when Instrument and Options.Durable are combined.
	Rebind func(g amcast.GroupID, eng amcast.SnapshotEngine) error
	// PostCheck, when non-nil, runs after the schedule quiesces,
	// auditing execution-level properties (serializability including
	// fast reads and lease validity, store invariants, replica digests).
	// Its error is the schedule's violation.
	PostCheck func() error
}

func (d *Deployment) validate() error {
	if len(d.Groups) == 0 {
		return fmt.Errorf("chaos: deployment has no groups")
	}
	if d.Factory == nil || d.Route == nil {
		return fmt.Errorf("chaos: deployment missing factory or route")
	}
	return nil
}

// Options parameterize exploration. The zero value of every field gets a
// sensible default; a zero Options explores a moderately hostile
// environment. Setting a fault knob (DropProb, DupProb, JitterMax,
// Partitions, Crashes) to a negative value disables that fault class —
// useful for isolating which class triggers a violation.
type Options struct {
	// Seed drives everything: workload, latencies, faults. Schedule i of
	// Explore runs with ScheduleSeed(Seed, i).
	Seed int64
	// Schedules is the number of seeded schedules Explore runs (default
	// 50).
	Schedules int

	// Clients and Messages shape the workload: Clients concurrent
	// sources issuing Messages multicasts each (defaults 3 and 10), with
	// destination sets of up to MaxDst groups (default: all groups),
	// injected at random times in [0, InjectWindow] (default 2 virtual
	// seconds).
	Clients      int
	Messages     int
	MaxDst       int
	InjectWindow sim.Time
	// ClosedLoop switches the workload from open-loop (all multicasts
	// scheduled up front at random times) to closed-loop: each client
	// issues its next multicast the moment the previous one completed
	// (every destination's reply received), after ThinkTime. Closed-loop
	// schedules keep the protocol continuously saturated relative to its
	// own progress — delivery, ack and flush phases overlap densely in
	// ways the open-loop injector rarely produces.
	ClosedLoop bool
	// ThinkTime is the closed-loop delay between a completion and the
	// next issue (default 0: immediate).
	ThinkTime sim.Time
	// FlushEvery adds the paper's §4.3 flush/garbage-collection client:
	// a flush message multicast to every group on this period, so
	// exploration also covers history pruning (default 400ms; negative
	// disables).
	FlushEvery sim.Time

	// DropProb is the per-transmission probability of a simulated drop:
	// the envelope is delayed by a retransmission backoff of roughly
	// RetransmitDelay (default probability 0.05, default backoff 30ms),
	// and later traffic on the link queues behind it.
	DropProb        float64
	RetransmitDelay sim.Time
	// DupProb is the per-transmission probability of delivering a
	// duplicate copy (default 0.02).
	DupProb float64
	// JitterMax adds uniform per-transmission latency jitter in
	// [0, JitterMax) (default 5ms).
	JitterMax sim.Time

	// Partitions is the number of transient directed-link partition
	// windows per schedule (default 2); each lasts around PartitionMean
	// (default 150ms) and heals automatically.
	Partitions    int
	PartitionMean sim.Time

	// Crashes is the number of group-server crash/recovery events per
	// schedule (default 2, distinct groups); each server stays down for
	// around DowntimeMean (default 200ms) and recovers from its last
	// snapshot plus its write-ahead input log.
	Crashes      int
	DowntimeMean sim.Time
	// SnapshotEvery is the snapshot cadence in input envelopes (default
	// 16): state since the last snapshot must be rebuilt by WAL replay
	// on recovery.
	SnapshotEvery int
	// Durable routes every node's persistence through the real durable
	// backend (internal/durable) in a per-schedule temporary directory,
	// instead of the in-memory snapshot+WAL model: inputs are appended
	// to a CRC-framed on-disk WAL, snapshots rotate it on the
	// SnapshotEvery cadence, a crash abandons the files exactly as
	// kill -9 would, and recovery rebuilds a fresh engine from disk
	// (Deployment.Decode required). Every recovery is audited: the
	// recovered state must equal the crashed engine's final state byte
	// for byte, and the replay length must stay within the snapshot
	// cadence. Instrument deployments are re-attached to each recovered
	// engine through Instrumentation.Rebind.
	Durable bool
	// TornTailProb is the per-crash probability, in durable mode, that
	// the abandoned WAL is left with a torn tail — a partial record cut
	// mid-frame, the artifact of dying mid-append. Recovery must detect
	// and discard it (injections are counted in FaultStats.TornTails;
	// default 0.5, negative disables).
	TornTailProb float64

	// FastReadProb is the probability that a client reply triggers a
	// local-read fast-path transaction at the replying group, at the
	// client's observed delivered-prefix barrier (only on deployments
	// whose Instrumentation provides FastRead; default 0.25, negative
	// disables). Reads interleave with crashes, recoveries and
	// partitions, auditing the fast path under the full fault model.
	FastReadProb float64

	// TraceSample enables the sim-time lifecycle tracer: one multicast
	// in TraceSample is stamped at submit, first delivery and
	// completion, and the per-stage decomposition (in simulated
	// nanoseconds) aggregates across schedules into Report.Stages
	// (default 4; negative disables).
	TraceSample int

	// BugFlipEvery is a test-only hook that validates the checker
	// pipeline: when > 0, every BugFlipEvery-th multi-delivery batch at
	// a group records its first two deliveries in swapped order — a
	// deliberate ordering violation the safety checker must catch.
	// Production callers leave it 0.
	BugFlipEvery int

	// Observer, when non-nil, sees every envelope as it is handed to a
	// node (after faults, queueing and crash parking) — a debugging aid
	// for analyzing a failing schedule. It does not perturb the run.
	Observer sim.SendHook

	// Latency, when non-nil, replaces the default random per-link
	// latency model with a fixed one — e.g. the harness's WAN matrix
	// (internal/harness.ApplyWANProfile), whose latency topology the
	// random model does not emulate.
	Latency func(from, to amcast.NodeID) sim.Time
	// NextTx, when non-nil, replaces the uniform random workload: it is
	// called once per (schedule, client) with the schedule's seed and
	// returns the generator of that client's multicast sequence
	// (destination set and payload per message). The harness's WAN
	// profile plugs gTPC-C destination locality (and executable
	// transaction payloads) in through it.
	NextTx func(scheduleSeed int64, client int) func(i int) ([]amcast.GroupID, []byte)
}

func (o *Options) fill() {
	if o.Schedules == 0 {
		o.Schedules = 50
	}
	if o.Clients == 0 {
		o.Clients = 3
	}
	if o.Messages == 0 {
		o.Messages = 10
	}
	if o.InjectWindow == 0 {
		o.InjectWindow = 2_000_000
	}
	if o.FlushEvery == 0 {
		o.FlushEvery = 400_000
	}
	if o.DropProb == 0 {
		o.DropProb = 0.05
	}
	if o.RetransmitDelay == 0 {
		o.RetransmitDelay = 30_000
	}
	if o.DupProb == 0 {
		o.DupProb = 0.02
	}
	if o.JitterMax == 0 {
		o.JitterMax = 5_000
	}
	if o.Partitions == 0 {
		o.Partitions = 2
	}
	if o.PartitionMean == 0 {
		o.PartitionMean = 150_000
	}
	if o.Crashes == 0 {
		o.Crashes = 2
	}
	if o.DowntimeMean == 0 {
		o.DowntimeMean = 200_000
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 16
	}
	if o.TornTailProb == 0 {
		o.TornTailProb = 0.5
	}
	if o.FastReadProb == 0 {
		o.FastReadProb = 0.25
	}
	if o.TraceSample == 0 {
		o.TraceSample = 4
	}
	// Negative knobs ("fault class off") are kept as-is so fill stays
	// idempotent; the injector treats them as zero.
}

// ScheduleSeed derives the seed of schedule i from the base seed, using
// a splitmix64 step so neighbouring base seeds do not share schedules.
func ScheduleSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
