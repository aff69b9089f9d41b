// Package smr implements state machine replication of a protocol group,
// the fault-tolerance approach of the paper's §4.4: "processes within a
// group are kept consistent using state machine replication … processes
// in a group can fail as long as enough processes remain operational
// within the group".
//
// A Group runs N replicas. Each replica holds a Paxos participant and a
// deterministic protocol engine (FlexCast, Skeen or hierarchical — the
// amcast.Engine determinism contract exists exactly for this). Envelopes
// addressed to the group are sequenced through multi-Paxos; every replica
// applies the decided envelope sequence to its engine, so replicas stay
// byte-identical.
//
// Everything that reaches the group's ingress in one simulated instant is
// proposed as one Paxos value (a codec batch frame, or a plain frame for a
// lone envelope), at most maxBatch envelopes each, at that same instant:
// batching costs no simulated time. Replicas apply a decided batch through
// amcast.BatchStep, which is applying its envelopes in order.
//
// Output strategy: every live replica emits its engine's outputs
// (protocol envelopes and client replies), so no output is lost when the
// leader crashes between deciding and sending. An envelope one group
// sends another thus reaches the ingress once per sending replica, byte
// for byte the same. The copies stop there: the ingress encodes each
// peer envelope once and leaves it out of the instant's proposal when
// the same bytes are among the last seenRing peer envelopes proposed (a
// digest finds the candidate, a byte comparison confirms it). Client
// requests are sent once and skip the check. Dropping a copy is safe
// because every receiver here is idempotent (engines deduplicate
// MSG/ACK/NOTIF/REQUEST/TS envelopes, clients deduplicate replies): it
// would have been applied as a no-op. A copy that outlives the ring is
// proposed and applied as that no-op, which is what every copy cost
// before the check.
package smr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/metrics"
	"flexcast/internal/paxos"
	"flexcast/internal/sim"
)

// ErrLeaseExpired is returned by FollowerRead when the addressed
// follower does not hold a valid read lease — it has not yet applied a
// grant covering the current time (crashed and recovering, partitioned
// from the log, or leases disabled). Callers route the read to another
// replica; serving anyway would be the stale-serve bug the fast-read
// audit catches.
var ErrLeaseExpired = errors.New("smr: follower read lease expired")

// replicaBase offsets replica node ids: replica idx of group g lives at
// NodeID(g) + (idx+1)*replicaBase. Group ids stay below replicaBase and
// clients start at 1<<20, so the ranges never collide.
const replicaBase amcast.NodeID = 1 << 12

// ReplicaNode returns the network address of one replica.
func ReplicaNode(g amcast.GroupID, idx int) amcast.NodeID {
	return amcast.NodeID(g) + amcast.NodeID(idx+1)*replicaBase
}

// Config configures a replicated group.
type Config struct {
	// Group is the replicated group's id.
	Group amcast.GroupID
	// Replicas is the replication degree N (Paxos tolerates ⌊(N-1)/2⌋
	// crashes).
	Replicas int
	// NewEngine builds one engine instance; it is called once per replica
	// and every instance must be deterministic and identical.
	NewEngine func() (amcast.Engine, error)
	// IntraLatency is the one-way latency between replicas (co-located in
	// one region; default 200µs).
	IntraLatency sim.Time
	// TickEvery is the Paxos failure-detector tick period (default 50ms).
	TickEvery sim.Time
	// OnDeliver observes deliveries at replica 0's engine (or, more
	// precisely, at every replica; see OnDeliverAll) exactly once per
	// replica. May be nil.
	OnDeliver func(replica int, d amcast.Delivery)
	// LeaseTerm enables follower read leases: while it is > 0, the
	// current leader periodically (every LeaseTerm/3) sequences a lease
	// grant through the Paxos log, valid for LeaseTerm from its propose
	// time. Because grants ride decided log entries, every replica
	// learns the lease state deterministically, totally ordered with the
	// command stream — a replica that has not applied a current grant
	// (crashed, recovering, cut off) holds no lease and FollowerRead
	// refuses. 0 disables leases (FollowerRead always refuses).
	LeaseTerm sim.Time
	// LeaseMargin is the follower-side safety margin: a follower stops
	// serving once now+LeaseMargin reaches the grant's expiry, i.e.
	// strictly before the leader considers the lease dead. The margin is
	// what absorbs clock skew between grantor and follower — zero-cost
	// in the simulator's global clock, load-bearing on real transports
	// (DESIGN.md §1e). Default LeaseTerm/4.
	LeaseMargin sim.Time
	// SnapshotEvery, when > 0, has each replica snapshot its engine every
	// SnapshotEvery applied log entries (a log entry is one proposal: a
	// lease entry or every envelope that reached the ingress in one
	// instant, up to maxBatch) and truncate its Paxos log at the
	// snapshot boundary (paxos.TruncateBefore) — the §4.3 flush-GC
	// discipline applied to the replicated log. The snapshot is retained
	// on the replica's stable storage (it survives Crash, like the Paxos
	// acceptor state), so Restart restores it and replays only the log
	// suffix: recovery work is bounded by the snapshot cadence, not the
	// run length. A recovering replica whose log predates a live peer's
	// truncation floor is instead shipped that peer's retained snapshot
	// and streams only the suffix (mirroring store.Executor's follower
	// attach). Requires the engine to implement amcast.SnapshotEngine;
	// 0 disables snapshots and keeps full-log replay.
	SnapshotEvery int
}

// Group is a replicated protocol group attached to a simulated network.
type Group struct {
	cfg      Config
	s        *sim.Simulator
	net      *sim.Network
	replicas []*replica
	stopped  bool

	// The instant's proposals under construction, back to back in enc:
	// each a batch frame, BatchKind | count | (len, encoding)…, whose
	// one-byte count (maxBatch < 128) flush fills in. drafts is non-empty
	// exactly while a flush is scheduled; one is the arriving envelope's
	// encoding.
	enc    []byte
	drafts []draft
	one    []byte
	// seen is a ring of the last seenRing peer envelopes proposed (digest
	// and encoding), oldest overwritten first; seenAt maps a digest to
	// its newest slot.
	seen     [seenRing]seenEnc
	seenNext int
	seenAt   map[uint64]int

	nBatchesProp  uint64
	nEnvsProposed uint64
	lastRecovery  *RecoveryStats

	// Telemetry (observers only — none of it feeds back into protocol
	// state, so determinism is untouched). proposedAt holds each
	// undecided proposal's propose time, keyed by the value's first byte:
	// the simulator hands every replica the proposed slice itself, so a
	// decided value is identified by its backing array. The first replica
	// to apply it records the propose→decide latency and retires the key.
	telem      GroupTelemetry
	proposedAt map[*byte]sim.Time
}

// maxBatch caps the envelopes one proposal carries; the rest of an
// instant's envelopes follow in further proposals at the same instant.
const maxBatch = 64

// seenRing is how many proposed peer envelopes the ingress remembers.
// Every copy of an envelope reaches the ingress within a few intra-group
// hops of the first, so on smr-sim's shape (4 groups × 3 replicas) no
// copy outlives it.
const seenRing = 1024

// draft is one proposal under construction: where it starts in enc and
// how many envelopes it carries.
type draft struct{ at, n int }

// seenEnc is a proposed peer envelope: its digest, and its encoding,
// which a digest hit is compared with byte for byte.
type seenEnc struct {
	sum uint64
	enc string
}

// crcTable digests encodings: CRC-64, the same on every run.
var crcTable = crc64.MakeTable(crc64.ECMA)

// GroupTelemetry is the group's observability state: lease-protocol
// counters and the Paxos commit-latency distribution.
type GroupTelemetry struct {
	// LeaseGrants counts grant entries the leader sequenced (leaseTick),
	// LeaseRevocations revocation entries (RevokeLeases).
	LeaseGrants      uint64
	LeaseRevocations uint64
	// LeaseRenewals counts grant entries applied across all replicas
	// (each applied grant renews that replica's lease view).
	LeaseRenewals uint64
	// LeaseRefusals counts FollowerRead calls refused for want of a
	// valid lease.
	LeaseRefusals uint64
	// Suppressed counts the peer envelopes the ingress left out of a
	// proposal because the same bytes were proposed recently.
	Suppressed uint64
	// Commit is the propose→first-decide latency distribution in
	// nanoseconds (sim µs × 1000, matching the telemetry plane's unit).
	Commit *metrics.Histogram
}

type replica struct {
	grp     *Group
	idx     int
	node    amcast.NodeID
	pax     *paxos.Replica
	eng     amcast.Engine
	crashed bool
	applied uint64
	// envs is the reused buffer a decided value decodes into, lent to
	// the engine for one step (amcast.BatchStep) and then scrubbed.
	envs []amcast.Envelope
	// leaseExpiry is the expiry of the newest lease grant this replica
	// has applied from the decided log (0: none). Each replica holds its
	// own view: a lagging replica holds an older — hence safer — lease.
	leaseExpiry sim.Time
	// Snapshot state (Config.SnapshotEvery > 0). snap is the retained
	// engine snapshot — conceptually on stable storage, so it survives
	// Crash like the Paxos acceptor state; snapDecided is the Paxos
	// instance boundary it covers (the log below it is truncated),
	// snapApplied/snapLease restore the replica's counters alongside it.
	snap        amcast.Snapshot
	snapDecided paxos.InstanceID
	snapApplied uint64
	snapLease   sim.Time
	sinceSnap   int
}

// New builds the group and registers its ingress and replicas on the
// network.
func New(cfg Config, s *sim.Simulator, net *sim.Network) (*Group, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("smr: need at least one replica")
	}
	if cfg.NewEngine == nil {
		return nil, fmt.Errorf("smr: missing engine factory")
	}
	if cfg.IntraLatency == 0 {
		cfg.IntraLatency = 200
	}
	if cfg.TickEvery == 0 {
		cfg.TickEvery = 50_000
	}
	if cfg.LeaseTerm > 0 && cfg.LeaseMargin == 0 {
		cfg.LeaseMargin = cfg.LeaseTerm / 4
	}
	g := &Group{cfg: cfg, s: s, net: net, proposedAt: make(map[*byte]sim.Time), seenAt: make(map[uint64]int)}
	g.telem.Commit = metrics.NewHistogram()
	for i := 0; i < cfg.Replicas; i++ {
		pax, err := paxos.NewReplica(paxos.Config{ID: paxos.ReplicaID(i), N: cfg.Replicas})
		if err != nil {
			return nil, fmt.Errorf("smr: %w", err)
		}
		eng, err := cfg.NewEngine()
		if err != nil {
			return nil, err
		}
		r := &replica{
			grp:  g,
			idx:  i,
			node: ReplicaNode(cfg.Group, i),
			pax:  pax,
			eng:  eng,
		}
		g.replicas = append(g.replicas, r)
	}
	for _, r := range g.replicas {
		g.stampReads(r)
	}
	// The group's logical endpoint: the paper treats each group as a
	// reliable entity; the ingress forwards external envelopes into the
	// replica set (to the believed leader, falling back to any live
	// replica).
	net.Register(amcast.GroupNode(cfg.Group), sim.HandlerFunc(g.ingress))
	return g, nil
}

// readStamper is implemented by store.Executor; asserted structurally
// so smr stays independent of the store package.
type readStamper interface {
	SetReadStamp(replica int32, lease func() bool)
}

// stampReads marks a read-capable engine (store.Executor) with its
// replica identity and this group's lease gate, so every fast-read
// audit record carries which replica served and whether it was allowed
// to — a follower serve through a regressed lease gate then fails
// trace.CheckFastReads instead of passing as a serving-node read. The
// leader needs no lease (it is the grantor and current by
// construction); a non-leading replica's authority is its applied
// lease. Re-applied on Restart, which builds a fresh engine.
func (g *Group) stampReads(r *replica) {
	s, ok := r.eng.(readStamper)
	if !ok {
		return
	}
	r2 := r
	s.SetReadStamp(int32(r.idx), func() bool {
		return r2.pax.IsLeader() || g.holdsLease(r2)
	})
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config, s *sim.Simulator, net *sim.Network) *Group {
	g, err := New(cfg, s, net)
	if err != nil {
		panic(err)
	}
	return g
}

// Start begins the Paxos failure-detector ticks (and, with LeaseTerm
// set, the leader's lease-grant loop).
func (g *Group) Start() {
	g.s.Schedule(g.cfg.TickEvery, g.tick)
	if g.cfg.LeaseTerm > 0 {
		g.s.Schedule(g.cfg.LeaseTerm/3, g.leaseTick)
	}
}

// Stop halts the tick loop (tests call it before draining the simulator).
func (g *Group) Stop() { g.stopped = true }

func (g *Group) tick() {
	if g.stopped {
		return
	}
	for _, r := range g.replicas {
		if r.crashed {
			continue
		}
		r.route(r.pax.Tick())
		r.apply()
	}
	g.s.Schedule(g.cfg.TickEvery, g.tick)
}

// Crash kills one replica (failure injection).
func (g *Group) Crash(idx int) {
	r := g.replicas[idx]
	r.crashed = true
	r.pax.Crash()
}

// RecoveryStats reports how the last Restart rebuilt its replica: which
// snapshot seeded the engine (its own retained one, a donor-shipped
// one, or none) and how many log entries were replayed on top. With
// SnapshotEvery set, Replayed is bounded by the snapshot cadence plus
// the decisions missed while down — independent of run length.
type RecoveryStats struct {
	// Replica is the restarted replica's index.
	Replica int
	// FromSnapshot: the replica restored its own retained snapshot.
	FromSnapshot bool
	// SnapshotShipped: the replica's log predated a live donor's
	// truncation floor, so the donor's retained snapshot was installed
	// instead (the smr analogue of store's follower snapshot shipping).
	SnapshotShipped bool
	// Donor is the shipping donor's index (-1 if none shipped).
	Donor int
	// Replayed counts decided log entries applied during recovery (own
	// suffix plus donor catch-up).
	Replayed int
}

// Restart recovers a crashed replica — the paper's §4.4 recovery path.
// The replica's engine state is rebuilt from its retained snapshot (if
// SnapshotEvery is set) plus a replay of its stable decided-log suffix
// (the Paxos log is the write-ahead log of engine inputs); without
// snapshots the whole log is replayed into a fresh engine. Decisions
// missed while down are state-transferred from the most advanced live
// peer — as a log suffix when the peer still retains the needed
// entries, or as that peer's snapshot plus suffix when truncation
// already dropped them. Replayed outputs are suppressed: live replicas
// already emitted them (every replica emits; receivers are idempotent),
// so recovery adds no duplicate traffic. OnDeliver is likewise not
// re-invoked for replayed entries.
func (g *Group) Restart(idx int) error {
	r := g.replicas[idx]
	if !r.crashed {
		return nil
	}
	eng, err := g.cfg.NewEngine()
	if err != nil {
		return fmt.Errorf("smr: restart replica %d: %w", idx, err)
	}
	r.eng = eng
	g.stampReads(r)
	r.applied = 0
	r.leaseExpiry = 0
	r.crashed = false
	r.pax.Recover()
	r.pax.TakeDecisions() // discard learner output stranded by the crash
	stats := RecoveryStats{Replica: idx, Donor: -1}

	var donor *replica
	for _, p := range g.replicas {
		if p.crashed || p.idx == idx {
			continue
		}
		if donor == nil || p.pax.Decided() > donor.pax.Decided() {
			donor = p
		}
	}

	switch {
	case donor != nil && donor.snap != nil && donor.pax.Base() > r.pax.Decided():
		// The donor truncated entries this replica still needs: its own
		// log is a strict prefix of what the donor's snapshot covers, so
		// install that snapshot and resume delivery at its boundary.
		if err := r.restore(donor.snap, donor.snapApplied, donor.snapLease); err != nil {
			return fmt.Errorf("smr: restart replica %d: install donor snapshot: %w", idx, err)
		}
		r.pax.InstallSnapshot(donor.snapDecided)
		// Discard the decisions InstallSnapshot queued for instances at or
		// above the boundary: the DecidedLog suffix replay below covers
		// exactly those entries, and draining them again in the catch-up
		// branch would double-apply them (overcounting Replayed and
		// leaning on engine idempotence for no reason).
		r.pax.TakeDecisions()
		// The shipped snapshot becomes this replica's own retained one —
		// it now sits on the replica's stable storage exactly like a
		// snapshot it took itself. Without this, a second crash before the
		// next own snapshot would pair the stale pre-ship snapshot (or
		// none) with the raised Paxos base and silently lose every entry
		// in between, and this replica acting as donor later would ship a
		// snapshot that does not cover its own truncation floor.
		r.snap, r.snapDecided = donor.snap, donor.snapDecided
		r.snapApplied, r.snapLease = donor.snapApplied, donor.snapLease
		stats.SnapshotShipped = true
		stats.Donor = donor.idx
	case r.snap != nil:
		// Own retained snapshot: the Paxos log was truncated at its
		// boundary pre-crash, so DecidedLog below is exactly the suffix.
		if err := r.restore(r.snap, r.snapApplied, r.snapLease); err != nil {
			return fmt.Errorf("smr: restart replica %d: restore snapshot: %w", idx, err)
		}
		stats.FromSnapshot = true
	}

	suffix := r.pax.DecidedLog()
	r.replay(suffix)
	stats.Replayed += len(suffix)

	if donor != nil && donor.pax.Decided() > r.pax.Decided() {
		from := r.pax.Decided()
		if from < donor.pax.Base() {
			// The donor truncated entries below from, yet the shipping
			// branch did not run — it retains no snapshot covering its own
			// floor, an invariant violation. SuffixFrom would silently
			// clamp to the donor's base and CatchUp would install those
			// values at the wrong instances; fail loudly instead.
			return fmt.Errorf("smr: restart replica %d: donor %d truncated its log below %d (base %d) without a covering snapshot",
				idx, donor.idx, from, donor.pax.Base())
		}
		r.pax.CatchUp(from, donor.pax.SuffixFrom(from))
		var vals [][]byte
		for _, dec := range r.pax.TakeDecisions() {
			vals = append(vals, dec.Value)
		}
		r.replay(vals)
		stats.Replayed += len(vals)
		if stats.Donor < 0 {
			stats.Donor = donor.idx
		}
	}
	r.sinceSnap = int(r.applied - r.snapApplied)
	g.lastRecovery = &stats
	return nil
}

// restore installs an engine snapshot plus the counters taken with it.
func (r *replica) restore(snap amcast.Snapshot, applied uint64, lease sim.Time) error {
	se, ok := r.eng.(amcast.SnapshotEngine)
	if !ok {
		return fmt.Errorf("engine %T does not support snapshots", r.eng)
	}
	if err := se.Restore(snap); err != nil {
		return err
	}
	r.applied = applied
	r.leaseExpiry = lease
	return nil
}

// LastRecovery returns the stats of the most recent Restart, or nil if
// no replica was restarted yet.
func (g *Group) LastRecovery() *RecoveryStats { return g.lastRecovery }

// maybeSnapshot takes an engine snapshot covering log instances below
// upTo and truncates the Paxos log there, once SnapshotEvery entries
// accumulated since the last one. upTo is the instance just applied
// plus one — NOT pax.Decided(), which mid-batch already counts entries
// the engine has not applied yet; truncating at it would drop log
// entries the snapshot does not cover. Called at applied-entry
// boundaries only: the engine has drained its deliveries, so the
// snapshot is a clean point.
func (r *replica) maybeSnapshot(upTo paxos.InstanceID) {
	if r.grp.cfg.SnapshotEvery <= 0 || r.sinceSnap < r.grp.cfg.SnapshotEvery {
		return
	}
	se, ok := r.eng.(amcast.SnapshotEngine)
	if !ok {
		return
	}
	r.snap = se.Snapshot()
	r.snapDecided = upTo
	r.snapApplied = r.applied
	r.snapLease = r.leaseExpiry
	r.sinceSnap = 0
	r.pax.TruncateBefore(upTo)
}

// replay applies a decided-value sequence to the engine without emitting
// outputs, replies or OnDeliver callbacks. Lease entries are replayed
// into the lease view too — their grant times are pre-crash, so a
// recovered replica's lease is typically already expired and it refuses
// follower reads until the live leader's next grant is decided.
func (r *replica) replay(vals [][]byte) {
	for _, v := range vals {
		if isLease(v) {
			r.applied++
			r.applyLease(v)
			continue
		}
		envs, err := codec.DecodeFrameInto(r.envs[:0], v)
		if err != nil {
			continue // mirrors apply: skip deterministically
		}
		r.envs = envs
		r.applied++
		amcast.BatchStep(r.eng, envs)
		r.eng.TakeDeliveries()
		clear(envs)
	}
}

// leaseMarker discriminates lease entries from codec frames in the
// decided log: envelope kinds occupy 1..8 and batch frames start with
// codec.BatchKind (0x40), so the high marker byte is unambiguous.
const leaseMarker byte = 0xF5

// leaseValue encodes a lease entry: a grant valid until expiry, or a
// revocation (expiry 0).
func leaseValue(expiry sim.Time) []byte {
	buf := make([]byte, 1, 10)
	buf[0] = leaseMarker
	return binary.AppendUvarint(buf, uint64(expiry))
}

// isLease reports whether a decided value is a lease entry.
func isLease(v []byte) bool { return len(v) > 0 && v[0] == leaseMarker }

// applyLease installs one decided lease entry into this replica's lease
// view. Entries are applied in log order on every replica, so the view
// is deterministic — a replica that has not caught up simply holds an
// older (sooner-expiring, hence safer) lease.
func (r *replica) applyLease(v []byte) {
	expiry, n := binary.Uvarint(v[1:])
	if n <= 0 {
		return // corrupt lease entry: skip deterministically, like apply
	}
	r.leaseExpiry = sim.Time(expiry)
}

// leaseTick is the leader's grant loop: every LeaseTerm/3 the replica
// that currently leads sequences a grant through the Paxos log, valid
// for LeaseTerm from now. Riding the log (rather than a side channel)
// is what makes the lease state consistent with the command stream on
// every replica, including across leader changes and recoveries.
func (g *Group) leaseTick() {
	if g.stopped {
		return
	}
	if lead := g.Leader(); lead >= 0 {
		r := g.replicas[lead]
		g.telem.LeaseGrants++
		r.route(r.pax.Propose(leaseValue(g.s.Now() + g.cfg.LeaseTerm)))
		r.apply()
	}
	g.s.Schedule(g.cfg.LeaseTerm/3, g.leaseTick)
}

// RevokeLeases has the current leader sequence a revocation entry:
// replicas applying it refuse follower reads until a fresh grant is
// decided. No-op without a live leader (leases then expire on their
// own).
func (g *Group) RevokeLeases() {
	if lead := g.Leader(); lead >= 0 {
		r := g.replicas[lead]
		g.telem.LeaseRevocations++
		r.route(r.pax.Propose(leaseValue(0)))
		r.apply()
	}
}

// HoldsLease reports whether replica idx could serve a follower read
// now: it is live and has applied a grant whose expiry is more than
// LeaseMargin away.
func (g *Group) HoldsLease(idx int) bool { return g.holdsLease(g.replicas[idx]) }

func (g *Group) holdsLease(r *replica) bool {
	return !r.crashed && r.leaseExpiry > 0 && g.s.Now()+g.cfg.LeaseMargin < r.leaseExpiry
}

// LeaseExpiry exposes replica idx's applied lease expiry (tests).
func (g *Group) LeaseExpiry(idx int) sim.Time { return g.replicas[idx].leaseExpiry }

// FollowerRead runs read against replica idx's engine iff the replica
// holds a valid read lease (HoldsLease); otherwise the read is refused
// with ErrLeaseExpired (or a crash error) and read is not called. The
// read callback typically asserts the engine to its executor wrapper
// (store.Executor) and serves a fast read at the caller's session
// barrier against the replica's own delivered-prefix watermark.
func (g *Group) FollowerRead(idx int, read func(eng amcast.Engine) error) error {
	r := g.replicas[idx]
	if r.crashed {
		return fmt.Errorf("smr: follower read at crashed replica %d of group %d", idx, g.cfg.Group)
	}
	if !g.HoldsLease(idx) {
		g.telem.LeaseRefusals++
		return fmt.Errorf("replica %d of group %d (expiry %d, now %d): %w",
			idx, g.cfg.Group, r.leaseExpiry, g.s.Now(), ErrLeaseExpired)
	}
	return read(r.eng)
}

// Leader returns the index of the first live replica that believes it
// leads, or -1.
func (g *Group) Leader() int {
	for _, r := range g.replicas {
		if !r.crashed && r.pax.IsLeader() {
			return r.idx
		}
	}
	return -1
}

// Applied reports how many log entries replica idx has applied.
func (g *Group) Applied(idx int) uint64 { return g.replicas[idx].applied }

// Engine exposes replica idx's engine for test inspection.
func (g *Group) Engine(idx int) amcast.Engine { return g.replicas[idx].eng }

// ingress encodes an external envelope into the current instant's
// proposal, unless it is a peer envelope whose bytes were proposed
// recently (see Output strategy). The first envelope of an instant
// schedules the flush with zero delay: the simulator fires equal-time
// events in scheduling order, so every envelope already due at this
// instant reaches the ingress before the flush does.
func (g *Group) ingress(env amcast.Envelope) {
	g.one = codec.Append(g.one[:0], env)
	if !env.From.IsClient() {
		sum := crc64.Checksum(g.one, crcTable)
		if slot, ok := g.seenAt[sum]; ok && g.seen[slot].enc == string(g.one) {
			g.telem.Suppressed++
			return
		}
		slot := g.seenNext
		g.seenNext = (slot + 1) % seenRing
		if old := g.seen[slot]; g.seenAt[old.sum] == slot {
			delete(g.seenAt, old.sum)
		}
		g.seen[slot] = seenEnc{sum: sum, enc: string(g.one)}
		g.seenAt[sum] = slot
	}
	if len(g.drafts) == 0 {
		g.s.Schedule(0, g.flush)
	}
	if len(g.drafts) == 0 || g.drafts[len(g.drafts)-1].n == maxBatch {
		g.drafts = append(g.drafts, draft{at: len(g.enc)})
		g.enc = append(g.enc, codec.BatchKind, 0)
	}
	g.drafts[len(g.drafts)-1].n++
	g.enc = binary.AppendUvarint(g.enc, uint64(len(g.one)))
	g.enc = append(g.enc, g.one...)
}

// flush proposes the instant's drafts, each copied into its own backing
// array; a lone envelope goes out as a plain frame (its encoding alone).
func (g *Group) flush() {
	for i, d := range g.drafts {
		end := len(g.enc)
		if i+1 < len(g.drafts) {
			end = g.drafts[i+1].at
		}
		from := d.at
		if d.n == 1 {
			_, w := binary.Uvarint(g.enc[from+2:])
			from += 2 + w
		} else {
			g.enc[from+1] = byte(d.n)
		}
		g.propose(bytes.Clone(g.enc[from:end]), d.n)
	}
	g.enc, g.drafts = g.enc[:0], g.drafts[:0]
}

// propose sequences one encoded value (a single envelope or a batch
// frame) through the believed leader, falling back to any live replica.
func (g *Group) propose(value []byte, nEnvs int) {
	var target *replica
	for _, r := range g.replicas {
		if r.crashed {
			continue
		}
		if target == nil {
			target = r
		}
		if r.pax.IsLeader() {
			target = r
			break
		}
	}
	if target == nil {
		return // whole group down: the paper assumes this cannot happen
	}
	g.nBatchesProp++
	g.nEnvsProposed += uint64(nEnvs)
	g.proposedAt[&value[0]] = g.s.Now()
	target.route(target.pax.Propose(value))
	target.apply()
}

// Proposals reports how many Paxos values the group proposed, how many
// envelopes they carried and how many peer envelopes the ingress
// suppressed as copies (tests, metrics).
func (g *Group) Proposals() (values, envelopes, suppressed uint64) {
	return g.nBatchesProp, g.nEnvsProposed, g.telem.Suppressed
}

// Telemetry returns the group's observability state. The histogram
// pointer is live; the counters are a snapshot.
func (g *Group) Telemetry() GroupTelemetry { return g.telem }

// route transmits Paxos messages between replicas over the intra-group
// links.
func (r *replica) route(ms []paxos.Message) {
	for _, m := range ms {
		to := r.grp.replicas[m.To]
		m := m
		r.grp.s.Schedule(r.grp.cfg.IntraLatency, func() {
			if to.crashed || r.grp.stopped {
				return
			}
			to.route(to.pax.OnMessage(m))
			to.apply()
		})
	}
}

// apply replays newly decided values (single envelopes or batches) into
// the engine and emits its outputs and client replies.
func (r *replica) apply() {
	for _, dec := range r.pax.TakeDecisions() {
		if isLease(dec.Value) {
			r.applied++
			r.sinceSnap++
			r.applyLease(dec.Value)
			if r.leaseExpiry > 0 {
				r.grp.telem.LeaseRenewals++
			}
			r.maybeSnapshot(dec.Instance + 1)
			continue
		}
		envs, err := codec.DecodeFrameInto(r.envs[:0], dec.Value)
		if err != nil {
			// A corrupt decided value would be a codec bug; skip it
			// deterministically on every replica.
			continue
		}
		r.envs = envs
		// First replica to apply this value records its propose→decide
		// latency (sim µs scaled to ns) and retires the key.
		if t0, ok := r.grp.proposedAt[&dec.Value[0]]; ok {
			delete(r.grp.proposedAt, &dec.Value[0])
			r.grp.telem.Commit.Record(uint64(r.grp.s.Now()-t0) * 1000)
		}
		r.applied++
		r.sinceSnap++
		outs := amcast.BatchStep(r.eng, envs)
		for _, o := range outs {
			r.grp.net.Send(amcast.GroupNode(r.grp.cfg.Group), o.To, o.Env)
		}
		for _, d := range r.eng.TakeDeliveries() {
			if r.grp.cfg.OnDeliver != nil {
				r.grp.cfg.OnDeliver(r.idx, d)
			}
			if d.Msg.Sender.IsClient() {
				from := amcast.GroupNode(r.grp.cfg.Group)
				r.grp.net.Send(from, d.Msg.Sender, amcast.ReplyFor(from, d))
			}
		}
		clear(envs)
		r.maybeSnapshot(dec.Instance + 1)
	}
}
