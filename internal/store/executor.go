package store

import (
	"fmt"
	"sync"
	"time"

	"flexcast/amcast"
	"flexcast/internal/gtpcc"
	"flexcast/internal/telemetry"
	"flexcast/internal/trace"
)

// Executor attaches a shard to a protocol engine: deliveries drained
// from the engine are executed against the shard (in delivery order,
// the only order the runtime ever observes them in) before they leave
// TakeDeliveries, and each delivery's Result carries the commit/abort
// verdict for the client reply. The Executor itself implements
// amcast.SnapshotEngine — snapshots and restores cover engine state AND
// store state together — so every runtime layer (the batched node
// runtime, the chaos crash/recovery harness, Paxos-replicated groups)
// runs an executing group without modification: wrap the engine factory
// and nothing else changes.
type Executor struct {
	eng amcast.SnapshotEngine

	// mu guards the store state (shard, mirror, watermark) against the
	// local-read fast path: deliveries are applied by the one goroutine
	// that drains the engine (write lock), but Read/TryRead execute on
	// the issuing clients' goroutines and only read shard state, so
	// they share a read lock — concurrent readers never serialize on
	// each other, only against applies. The engine itself stays
	// single-owner and is never touched under mu. cond is tied to the
	// read side (waiters hold RLocks).
	mu     sync.RWMutex
	cond   *sync.Cond
	shard  *Shard
	mirror *Shard
	// watermark is the delivered-prefix watermark in group-local
	// delivery-sequence space: every delivery with Seq < watermark has
	// been applied to the shard. Client replies carry delivery sequence
	// numbers, so a client's observed prefix is directly comparable —
	// the fast-path read barrier (DESIGN.md §1d).
	watermark uint64

	// onApply observes executed transactions (the serializability
	// checker's feed). Set before traffic flows; called (under mu) from
	// whatever goroutine drains the engine — observers must not call
	// back into the Executor.
	onApply func(trace.ExecRecord)
	// onRead observes fast-path reads (the fast-read audit's feed);
	// same contract as onApply.
	onRead func(trace.FastReadRecord)

	// shardCfg is the shard's population configuration, retained so
	// follower read replicas (AttachFollower) start from the identical
	// seeded state the serving node started from.
	shardCfg Config
	// replicaID and leaseStamp identify this executor among a
	// replicated group's replicas (SetReadStamp): fast-read records
	// carry the identity and the serving authority evaluated at serve
	// time, so the audit sees follower serves as follower serves.
	replicaID  int32
	leaseStamp func() bool
	// followers are the attached read replicas; every applied delivery
	// batch is shipped to each, in order, after the executor's lock is
	// released (the followers have their own locks and watermarks).
	followers []*Replica

	// tracer, when non-nil, stamps sampled client deliveries'
	// StageDeliver (first-wins, pre-apply) and StageExecute (last-wins,
	// post-apply) in TakeDeliveries.
	tracer *telemetry.Tracer
}

// NewExecutor wraps an engine with a freshly populated shard. mirror
// adds a second, independently maintained shard replica fed the same
// deliveries; CheckMirror then audits that Apply is deterministic
// (byte-identical replica digests) without deploying Paxos groups.
func NewExecutor(eng amcast.SnapshotEngine, cfg Config, mirror bool) (*Executor, error) {
	if g := eng.Group(); g != cfg.Warehouse && cfg.Warehouse != amcast.NoGroup {
		return nil, fmt.Errorf("store: engine group %d != warehouse %d", g, cfg.Warehouse)
	}
	cfg.Warehouse = eng.Group()
	shard, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e := &Executor{eng: eng, shard: shard, shardCfg: cfg}
	e.cond = sync.NewCond(e.mu.RLocker())
	if mirror {
		m, err := New(cfg)
		if err != nil {
			return nil, err
		}
		e.mirror = m
	}
	return e, nil
}

// Shard exposes the live shard (invariant checks, digests). Read it
// only after the owning runtime has quiesced.
func (e *Executor) Shard() *Shard { return e.shard }

// AttachFollower builds a follower read replica by snapshot shipping:
// the joining replica installs a clone of the serving shard at the
// current delivered-prefix watermark and then consumes only the log
// suffix the feed streams from that point on — never the full delivery
// history (DESIGN.md §1f). Attach is safe at any time, including
// mid-run: the clone and the watermark are captured atomically under
// the executor's lock, so the replica misses no delivery and re-applies
// none (feeds below the watermark are skipped as duplicates).
func (e *Executor) AttachFollower(cfg ReplicaConfig) (*Replica, error) {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	r, err := newReplicaAt(e.shard.Clone(), e.watermark, cfg)
	if err != nil {
		return nil, err
	}
	e.followers = append(e.followers, r)
	shipHist.Record(uint64(time.Since(start)))
	return r, nil
}

// Followers returns the attached read replicas in attach order.
func (e *Executor) Followers() []*Replica {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]*Replica(nil), e.followers...)
}

// SetTracer attaches the lifecycle tracer (nil detaches). Set before
// traffic flows, like the observers.
func (e *Executor) SetTracer(t *telemetry.Tracer) { e.tracer = t }

// SetExecObserver installs the execution-record observer.
func (e *Executor) SetExecObserver(f func(trace.ExecRecord)) { e.onApply = f }

// SetReadObserver installs the fast-read record observer.
func (e *Executor) SetReadObserver(f func(trace.FastReadRecord)) { e.onRead = f }

// SetReadStamp identifies this executor among a replicated group's
// replicas (internal/smr wires it for every replica's executor):
// fast-read records carry the replica index, and lease is evaluated at
// serve time to stamp the record's LeaseOK — so a read served through
// a regressed lease gate reaches the audit labeled as the stale
// follower serve it is (trace.CheckFastReads rejects it) instead of
// masquerading as a lease-exempt serving-node read. Unset, the
// executor records itself as replica 0, which needs no lease.
func (e *Executor) SetReadStamp(replica int32, lease func() bool) {
	e.replicaID = replica
	e.leaseStamp = lease
}

// Digest returns the live shard's state digest.
func (e *Executor) Digest() [32]byte { return e.shard.Digest() }

// CheckMirror verifies that the mirror replica — fed the identical
// delivery sequence — reached a byte-identical digest.
func (e *Executor) CheckMirror() error {
	if e.mirror == nil {
		return nil
	}
	if a, b := e.shard.Digest(), e.mirror.Digest(); a != b {
		return fmt.Errorf("store: warehouse %d replica digests diverged (%x != %x): Apply is not deterministic",
			e.shard.Warehouse(), a[:8], b[:8])
	}
	return nil
}

// Group implements amcast.Engine.
func (e *Executor) Group() amcast.GroupID { return e.eng.Group() }

// OnEnvelope implements amcast.Engine.
func (e *Executor) OnEnvelope(env amcast.Envelope) []amcast.Output {
	return e.eng.OnEnvelope(env)
}

// BatchStep implements amcast.BatchStepper via the inner engine's fast
// path (or its per-envelope fallback).
func (e *Executor) BatchStep(envs []amcast.Envelope) []amcast.Output {
	return amcast.BatchStep(e.eng, envs)
}

// TakeDeliveries drains the engine and executes each delivery against
// the shard (and mirror), stamping the execution verdict onto the
// delivery for the client reply. Applying also advances the delivered-
// prefix watermark, releasing any fast-path reads waiting on it; the
// watermark moves before the runtime can transmit the reply, so a
// client that has seen a reply for delivery s can always read at
// barrier s+1 without blocking.
func (e *Executor) TakeDeliveries() []amcast.Delivery {
	dels := e.eng.TakeDeliveries()
	if len(dels) == 0 {
		return dels
	}
	tr := e.tracer
	// An execution record is built only for an observer (Apply overwrites
	// it per delivery); the mirror and every follower replay the same
	// mutations unaudited.
	var rec *trace.ExecRecord
	if e.onApply != nil {
		rec = new(trace.ExecRecord)
	}
	e.mu.Lock()
	for i := range dels {
		if dels[i].Msg.Sender.IsClient() {
			// Entry stage, first-wins: the earliest group to deliver
			// marks the ordering point (the runtime's own post-drain
			// stamp loses against this earlier one).
			tr.Stamp(dels[i].Msg.ID, telemetry.StageDeliver)
		}
		dels[i].Result = e.shard.Apply(dels[i], rec)
		if e.mirror != nil {
			e.mirror.Apply(dels[i], nil)
		}
		if wm := dels[i].Seq + 1; wm > e.watermark {
			e.watermark = wm
		}
		if rec != nil && dels[i].Result != amcast.ResultNone {
			e.onApply(*rec)
		}
		// Stamp the delivery's watermark: the runtime copies it to the
		// KindReply envelope, feeding the client's session barrier. Seq+1
		// (not the batch-final watermark) keeps deliveries identical
		// under any chunking — a batch is a scheduling unit, never a
		// semantic one (amcast.BatchStepper).
		dels[i].Watermark = dels[i].Seq + 1
		if dels[i].Msg.Sender.IsClient() {
			// Completion stage, last-wins: the final group to apply
			// closes the execute window.
			tr.Stamp(dels[i].Msg.ID, telemetry.StageExecute)
		}
	}
	// Capture the follower set before unlocking: AttachFollower appends
	// under the same lock, so a replica attached mid-feed either sees
	// this batch in its installed snapshot (cloned under the lock) or in
	// a later feed — never both, never neither.
	followers := e.followers
	e.mu.Unlock()
	e.cond.Broadcast()
	// Ship the applied batch to the follower read replicas, in apply
	// order (TakeDeliveries is called by the engine's single owner, so
	// feeds are ordered). Recovery replay re-feeds a prefix; followers
	// skip sequences they already applied.
	for _, f := range followers {
		f.Feed(dels)
	}
	return dels
}

// ReadResult is the outcome of one fast-path read.
type ReadResult struct {
	// Value is the read's result: order-status returns the customer's
	// most recent home-order id (-1 when none), stock-level the low-
	// stock item count.
	Value int64
	// Watermark is the delivered prefix the read executed at (>= the
	// requested barrier).
	Watermark uint64
}

// TryRead executes a read-only transaction (order-status, stock-level)
// directly against the local shard at the current delivered prefix,
// without multicast. It fails — rather than waits — when the shard has
// not yet applied the caller's barrier: callers whose barrier comes
// from an observed reply are always satisfiable, so a failure means the
// prefix contract is broken (the discrete-event harnesses treat it as a
// violation).
func (e *Executor) TryRead(tx gtpcc.Tx, barrier uint64) (ReadResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.watermark < barrier {
		return ReadResult{}, fmt.Errorf("store: warehouse %d read barrier %d ahead of delivered prefix %d",
			e.shard.Warehouse(), barrier, e.watermark)
	}
	return e.readLocked(tx, barrier)
}

// Read is TryRead that waits (up to timeout) for the delivered-prefix
// barrier instead of failing — the form the wall-clock runtimes use,
// where the watermark advances concurrently.
func (e *Executor) Read(tx gtpcc.Tx, barrier uint64, timeout time.Duration) (ReadResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.watermark < barrier {
		expired := false
		t := time.AfterFunc(timeout, func() {
			e.mu.Lock()
			expired = true
			e.mu.Unlock()
			e.cond.Broadcast()
		})
		for e.watermark < barrier && !expired {
			e.cond.Wait()
		}
		t.Stop()
		if e.watermark < barrier {
			return ReadResult{}, fmt.Errorf("store: warehouse %d read barrier %d not reached within %v (delivered prefix %d)",
				e.shard.Warehouse(), barrier, timeout, e.watermark)
		}
	}
	return e.readLocked(tx, barrier)
}

// readLocked executes the read at the current watermark and reports it
// to the fast-read observer through the shared fast-read core (see
// readTx in replica.go). Callers hold mu (read side suffices: nothing
// here mutates shard or executor state, and the observer is
// concurrency-safe).
func (e *Executor) readLocked(tx gtpcc.Tx, barrier uint64) (ReadResult, error) {
	leaseOK := true
	if e.leaseStamp != nil {
		leaseOK = e.leaseStamp()
	}
	return readTx(e.shard, tx, barrier, e.watermark, e.replicaID, leaseOK, e.onRead)
}

// Watermark returns the delivered-prefix watermark (deliveries with
// group-local sequence below it have been applied).
func (e *Executor) Watermark() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.watermark
}

// CheckHistoryAcyclic forwards the inner engine's internal ordering
// audit (the FlexCast history DAG) so wrapping an engine does not hide
// it from the chaos explorer.
func (e *Executor) CheckHistoryAcyclic() error {
	if c, ok := e.eng.(interface{ CheckHistoryAcyclic() error }); ok {
		return c.CheckHistoryAcyclic()
	}
	return nil
}

// execSnapshot is the combined engine+store snapshot.
type execSnapshot struct {
	eng       amcast.Snapshot
	shard     *Shard
	mirror    *Shard
	watermark uint64
}

func (s *execSnapshot) SnapshotGroup() amcast.GroupID { return s.eng.SnapshotGroup() }

// Snapshot implements amcast.SnapshotEngine: engine and store state are
// captured together, so crash/recovery replay (chaos WAL, Paxos log)
// rebuilds application state alongside protocol state. The delivered-
// prefix watermark is part of the state: recovery replay re-advances it
// to (at least) its pre-crash value before any new traffic flows.
func (e *Executor) Snapshot() amcast.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &execSnapshot{eng: e.eng.Snapshot(), shard: e.shard.Clone(), watermark: e.watermark}
	if e.mirror != nil {
		s.mirror = e.mirror.Clone()
	}
	return s
}

// Restore implements amcast.SnapshotEngine. The snapshot stays usable
// for further restores.
func (e *Executor) Restore(snap amcast.Snapshot) error {
	s, ok := snap.(*execSnapshot)
	if !ok {
		return fmt.Errorf("store: snapshot type %T is not an executor snapshot", snap)
	}
	if g := s.SnapshotGroup(); g != e.eng.Group() {
		return fmt.Errorf("store: snapshot of group %d restored into group %d", g, e.eng.Group())
	}
	if err := e.eng.Restore(s.eng); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shard = s.shard.Clone()
	e.watermark = s.watermark
	if e.mirror != nil {
		if s.mirror != nil {
			e.mirror = s.mirror.Clone()
		} else {
			e.mirror = s.shard.Clone()
		}
	}
	return nil
}
