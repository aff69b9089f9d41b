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
//
// The package is also the repository's one simulated deployment host:
// the paper's measured runs (§5, the grid's sim cells) are timed
// schedules with every fault class off (Options.Duration), hosted by
// the same nodes and closed-loop clients and auditable by the same
// checkers.
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

// Deployment describes the protocol under test; NewDeployment builds one
// of the paper's three on its 12 regions.
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
	// execute marks a NewDeployment whose groups run the gTPC-C store:
	// its clients multicast executable gTPC-C transactions.
	execute bool
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
	// (every destination's reply received). Closed-loop schedules keep
	// the protocol continuously saturated relative to its own progress —
	// delivery, ack and flush phases overlap densely in ways the
	// open-loop injector rarely produces.
	ClosedLoop bool
	// FlushEvery adds the paper's §4.3 flush/garbage-collection client:
	// a flush message multicast to every group on this period, so
	// exploration also covers history pruning (default 400ms, off in a
	// timed run; negative disables).
	FlushEvery sim.Time

	// Locality, when > 0, replaces chaos's random environment with the
	// paper's: link latencies from the 12-region WAN matrix (client i
	// sits in region i mod 12) and gTPC-C transactions whose remote
	// warehouses are drawn at this locality rate. GlobalOnly restricts
	// the gTPC-C mix to multi-warehouse transactions, the paper's
	// latency workload.
	Locality   float64
	GlobalOnly bool

	// Duration, when > 0, makes the schedule a timed run of the paper's
	// measurement (§5.3) instead of a bounded exploration: every client
	// is closed-loop with no message budget, starts 137 µs after the
	// client of the previous region, and stops at Duration; completions
	// issued inside the trimmed window (the middle 80 %) are counted with
	// their per-destination reply latencies. Its defaults are the paper's
	// too: 240 clients, locality 0.95, and every fault class, fast reads,
	// the flush client and the lifecycle tracer off.
	Duration sim.Time
	// ProcCostBase and ProcCostPerKB model server capacity: a group node
	// handles envelopes serially at ProcCostBase µs plus ProcCostPerKB µs
	// per KiB of encoded envelope each (default 0: infinitely fast).
	ProcCostBase  sim.Time
	ProcCostPerKB float64

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
}

func (o *Options) fill() {
	if o.Duration > 0 {
		if o.Clients == 0 {
			o.Clients = 240
		}
		if o.Locality == 0 {
			o.Locality = 0.95
		}
		o.DropProb, o.DupProb, o.FastReadProb = off(o.DropProb), off(o.DupProb), off(o.FastReadProb)
		o.Partitions, o.Crashes, o.TraceSample = off(o.Partitions), off(o.Crashes), off(o.TraceSample)
		o.JitterMax, o.FlushEvery = off(o.JitterMax), off(o.FlushEvery)
	}
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

// off turns a knob left at its zero value off (negative).
func off[T ~int | ~int64 | ~float64](v T) T {
	if v == 0 {
		return -1
	}
	return v
}

// ScheduleSeed derives the seed of schedule i from the base seed, using
// a splitmix64 step so neighbouring base seeds do not share schedules.
func ScheduleSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
