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
// Output strategy: every live replica emits its engine's outputs
// (protocol envelopes and client replies). This trades bandwidth for
// simplicity and fault tolerance — no output is lost when the leader
// crashes between deciding and sending — and is safe because every
// receiver in this repository is idempotent: engines deduplicate
// MSG/ACK/NOTIF/REQUEST/TS envelopes and clients deduplicate replies.
package smr

import (
	"encoding/binary"
	"errors"
	"fmt"

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
	// BatchWindow enables batched proposals: envelopes arriving at the
	// group's ingress within the window are sequenced through Paxos as
	// one decided value (a codec batch frame), amortizing consensus
	// rounds under load. 0 keeps per-envelope proposals. Replicas apply
	// a decided batch through the engine's batch fast path, which is
	// semantically identical to applying its envelopes in order, so
	// batched and unbatched groups stay byte-equivalent.
	BatchWindow sim.Time
	// BatchMax caps the envelopes per proposal when batching (default
	// 64); reaching it proposes immediately.
	BatchMax int
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
	// SnapshotEvery applied log entries and truncate its Paxos log at the
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

	// pending accumulates ingress envelopes while a batch window is open.
	pending      []amcast.Envelope
	flushPlanned bool
	// flushGen invalidates scheduled window timers: a size-triggered
	// flush bumps it, so the timer it orphaned becomes a no-op instead
	// of prematurely fragmenting the next window's batch.
	flushGen      uint64
	nBatchesProp  uint64
	nEnvsProposed uint64
	lastRecovery  *RecoveryStats

	// Telemetry (observers only — none of it feeds back into protocol
	// state, so determinism is untouched). proposedAt keys each proposal
	// by its first envelope's id; the first replica to apply the decided
	// value records the propose→decide latency and retires the entry.
	telem      GroupTelemetry
	proposedAt map[amcast.MsgID]sim.Time
}

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
	if cfg.BatchMax == 0 {
		cfg.BatchMax = 64
	}
	if cfg.BatchMax > codec.MaxBatchEnvelopes {
		cfg.BatchMax = codec.MaxBatchEnvelopes
	}
	if cfg.LeaseTerm > 0 && cfg.LeaseMargin == 0 {
		cfg.LeaseMargin = cfg.LeaseTerm / 4
	}
	g := &Group{cfg: cfg, s: s, net: net, proposedAt: make(map[amcast.MsgID]sim.Time)}
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
		envs, err := codec.DecodeFrame(v)
		if err != nil {
			continue // mirrors apply: skip deterministically
		}
		r.applied++
		amcast.BatchStep(r.eng, envs)
		r.eng.TakeDeliveries()
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

// ingress sequences an external envelope through Paxos: immediately, or
// accumulated into a batch proposal when BatchWindow is set.
func (g *Group) ingress(env amcast.Envelope) {
	// Commit-latency bookkeeping: key the eventual proposal by this
	// envelope's id, first-wins (a batch is keyed by its first member;
	// re-proposed ids keep their original ingress time).
	if _, ok := g.proposedAt[env.Msg.ID]; !ok {
		g.proposedAt[env.Msg.ID] = g.s.Now()
	}
	if g.cfg.BatchWindow <= 0 {
		g.propose(codec.Marshal(env), 1)
		return
	}
	g.pending = append(g.pending, env)
	if len(g.pending) >= g.cfg.BatchMax {
		g.flushProposal()
		return
	}
	if !g.flushPlanned {
		g.flushPlanned = true
		gen := g.flushGen
		g.s.Schedule(g.cfg.BatchWindow, func() {
			if g.flushGen != gen {
				return // a size-triggered flush already closed this window
			}
			g.flushProposal()
		})
	}
}

// flushProposal proposes the open batch as one Paxos value and closes
// the current window.
func (g *Group) flushProposal() {
	g.flushPlanned = false
	g.flushGen++
	if len(g.pending) == 0 || g.stopped {
		return
	}
	envs := g.pending
	g.pending = nil
	if len(envs) == 1 {
		g.propose(codec.Marshal(envs[0]), 1)
		return
	}
	g.propose(codec.MarshalBatch(envs), len(envs))
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
	target.route(target.pax.Propose(value))
	target.apply()
}

// Proposals reports how many Paxos values the group proposed and how
// many envelopes they carried (tests, metrics).
func (g *Group) Proposals() (values, envelopes uint64) {
	return g.nBatchesProp, g.nEnvsProposed
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
		envs, err := codec.DecodeFrame(dec.Value)
		if err != nil {
			// A corrupt decided value would be a codec bug; skip it
			// deterministically on every replica.
			continue
		}
		// First replica to apply this value records its propose→decide
		// latency (sim µs scaled to ns) and retires the key.
		if t0, ok := r.grp.proposedAt[envs[0].Msg.ID]; ok {
			delete(r.grp.proposedAt, envs[0].Msg.ID)
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
		r.maybeSnapshot(dec.Instance + 1)
	}
}
