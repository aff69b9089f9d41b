package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexcast/amcast"
	"flexcast/internal/gtpcc"
	"flexcast/internal/trace"
)

// ErrLeaseExpired is returned when a follower replica refuses a fast
// read because it does not hold a valid read lease. Callers fall back
// to the group's serving node (or another replica) and count the
// refusal; serving the read anyway would be the stale-serve bug the
// fast-read audit exists to catch (trace.FastReadRecord.LeaseOK).
var ErrLeaseExpired = errors.New("store: read lease expired")

// ReplicaConfig configures one follower read replica.
type ReplicaConfig struct {
	// Idx identifies the replica within its group's replica set; the
	// serving node (leader) is 0, followers are 1..R-1. Stamped onto
	// every fast-read record (trace.FastReadRecord.Replica).
	Idx int32
	// Margin is the lease safety margin in lease-clock units (µs): the
	// replica refuses reads once now+Margin reaches the lease expiry,
	// so it stops serving strictly before the grantor considers the
	// lease dead. The margin absorbs clock skew between grantor and
	// follower — zero in the simulator's global clock, nonzero on real
	// transports (DESIGN.md §1e). Defaults to a quarter of the first
	// granted term.
	Margin uint64
	// Clock supplies the replica's lease clock (µs): sim time under the
	// discrete-event harnesses, wall-clock micros on real transports
	// (the default when nil). TryReadAt may alternatively pass its own
	// "now".
	Clock func() uint64
	// AutoGrantTerm, when > 0, renews the replica's lease on every Feed:
	// expiry = Clock() + AutoGrantTerm. This models the grant protocol of
	// the replicated deployments — lease renewals ride the shipped log
	// exactly like smr's lease entries ride the Paxos decided log — so a
	// replica cut off from the log (grantor crashed, link partitioned)
	// stops serving within one term.
	AutoGrantTerm uint64
	// Async applies feeds on the replica's own goroutine (the wall-clock
	// deployments); the default applies them inline on the feeding
	// goroutine (the deterministic harnesses).
	Async bool
}

// Replica is a follower read replica of one group's warehouse shard: it
// applies the group's delivery sequence — shipped in order by the
// group's serving node (Executor.AttachFollower) — to its own shard
// copy, maintains its own delivered-prefix watermark, and serves
// lease-gated fast reads at that watermark. Replicas never execute the
// protocol engine, never emit outputs and never take the serving node's
// locks: they multiply a group's read capacity by the replication
// factor while the write path is untouched (DESIGN.md §1e).
type Replica struct {
	cfg ReplicaConfig

	// mu mirrors the Executor's locking split: the applier mutates
	// shard/watermark under the write lock, reads share the read lock —
	// concurrent readers never serialize on each other, only against
	// applies (the whole point of a read replica). cond is tied to the
	// read side (barrier waiters hold RLocks).
	mu   sync.RWMutex
	cond *sync.Cond
	// shard is this replica's copy of the warehouse state; next is the
	// first delivery sequence it has not applied (feeds below it are
	// recovery-replay duplicates and are skipped), and watermark is its
	// delivered-prefix read barrier.
	shard     *Shard
	next      uint64
	watermark uint64
	// leaseEpoch/leaseExpiry are the newest lease this replica holds;
	// expiry 0 means revoked/never granted.
	leaseEpoch  uint64
	leaseExpiry uint64
	closed      bool

	refusals atomic.Uint64
	reads    atomic.Uint64
	renewals atomic.Uint64
	onRead   func(trace.FastReadRecord)

	queue chan []amcast.Delivery
	wg    sync.WaitGroup
}

// newReplica builds a follower over a fresh seeded shard (the same pure
// population function as the serving node's, so applying the same
// delivery prefix reproduces the same state).
func newReplica(shardCfg Config, cfg ReplicaConfig) (*Replica, error) {
	shard, err := New(shardCfg)
	if err != nil {
		return nil, err
	}
	return newReplicaAt(shard, 0, cfg)
}

// newReplicaAt builds a follower over an installed (snapshot-shipped)
// shard: the shard already reflects every delivery below start, so the
// replica's watermark begins there and earlier feeds are skipped as
// duplicates. The caller hands over ownership of the shard.
func newReplicaAt(shard *Shard, start uint64, cfg ReplicaConfig) (*Replica, error) {
	if cfg.Idx <= 0 {
		return nil, fmt.Errorf("store: follower replica index must be >= 1, got %d", cfg.Idx)
	}
	if cfg.Clock == nil {
		// Externally granted replicas still evaluate the lease at serve
		// time: default to the wall clock (expiries are then wall-clock
		// micros, matching Grant's natural units on real deployments).
		cfg.Clock = func() uint64 { return uint64(time.Now().UnixMicro()) }
	}
	if cfg.Margin == 0 && cfg.AutoGrantTerm > 0 {
		cfg.Margin = cfg.AutoGrantTerm / 4
	}
	r := &Replica{cfg: cfg, shard: shard, next: start, watermark: start}
	r.cond = sync.NewCond(r.mu.RLocker())
	if cfg.Async {
		r.queue = make(chan []amcast.Delivery, 64)
		r.wg.Add(1)
		go r.applier()
	}
	return r, nil
}

// Idx returns the replica's index within its group's replica set.
func (r *Replica) Idx() int32 { return r.cfg.Idx }

// SetReadObserver installs the fast-read record observer (the audit
// feed); set before traffic flows.
func (r *Replica) SetReadObserver(f func(trace.FastReadRecord)) { r.onRead = f }

// Feed ships one applied delivery batch to the replica, in the group's
// delivery order. Async replicas enqueue and apply on their own
// goroutine; the deterministic form applies inline. With AutoGrantTerm
// set, every feed also renews the replica's lease — the grant rides the
// log. Feed must not be called after Close: deployments stop the
// serving nodes (the feeders) before closing their replicas.
func (r *Replica) Feed(dels []amcast.Delivery) {
	if len(dels) == 0 {
		return
	}
	if r.cfg.AutoGrantTerm > 0 {
		now := r.cfg.Clock()
		r.mu.Lock()
		r.leaseEpoch++
		r.leaseExpiry = now + r.cfg.AutoGrantTerm
		r.mu.Unlock()
		r.renewals.Add(1)
	}
	if r.queue != nil {
		cp := append([]amcast.Delivery(nil), dels...)
		r.queue <- cp
		return
	}
	r.apply(dels)
}

// applier is the async replica's apply loop.
func (r *Replica) applier() {
	defer r.wg.Done()
	for dels := range r.queue {
		r.apply(dels)
	}
}

// apply executes one shipped batch against the replica's shard,
// skipping sequences it has already applied (recovery replay re-ships a
// prefix after the serving node restores a snapshot; the log is
// deterministic, so re-applied entries would be byte-identical — the
// skip just keeps the watermark honest).
func (r *Replica) apply(dels []amcast.Delivery) {
	r.mu.Lock()
	for i := range dels {
		if dels[i].Seq < r.next {
			continue
		}
		r.shard.Apply(dels[i], nil)
		r.next = dels[i].Seq + 1
		if wm := dels[i].Seq + 1; wm > r.watermark {
			r.watermark = wm
		}
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// Grant installs a read lease: the replica may serve fast reads until
// expiry (lease-clock µs), with the configured safety margin. Epochs
// only move forward; a stale grant (smaller epoch) is ignored.
func (r *Replica) Grant(epoch, expiry uint64) {
	r.mu.Lock()
	renewed := epoch >= r.leaseEpoch
	if renewed {
		r.leaseEpoch = epoch
		r.leaseExpiry = expiry
	}
	r.mu.Unlock()
	if renewed {
		r.renewals.Add(1)
	}
}

// Revoke withdraws the replica's lease immediately (administrative
// revocation; an expired lease needs no revoke).
func (r *Replica) Revoke() {
	r.mu.Lock()
	r.leaseExpiry = 0
	r.mu.Unlock()
}

// HoldsLease reports whether the replica would serve a read at
// lease-clock time now.
func (r *Replica) HoldsLease(now uint64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.leaseValidLocked(now)
}

func (r *Replica) leaseValidLocked(now uint64) bool {
	return r.leaseExpiry > 0 && now+r.cfg.Margin < r.leaseExpiry
}

// Refusals reports how many reads the replica refused for want of a
// valid lease.
func (r *Replica) Refusals() uint64 { return r.refusals.Load() }

// Reads reports how many fast reads the replica served.
func (r *Replica) Reads() uint64 { return r.reads.Load() }

// Renewals reports how many lease renewals the replica received
// (auto-grants riding the log feed plus explicit Grants that advanced
// the epoch).
func (r *Replica) Renewals() uint64 { return r.renewals.Load() }

// Watermark returns the replica's delivered-prefix watermark.
func (r *Replica) Watermark() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.watermark
}

// Shard exposes the replica's shard (digest comparisons in tests). Read
// it only after the owning deployment has quiesced.
func (r *Replica) Shard() *Shard { return r.shard }

// refuse counts and reports one lease refusal. Callers hold mu (read
// side suffices).
func (r *Replica) refuse() error {
	r.refusals.Add(1)
	return fmt.Errorf("replica %d of warehouse %d at lease epoch %d: %w",
		r.cfg.Idx, r.shard.Warehouse(), r.leaseEpoch, ErrLeaseExpired)
}

// TryReadAt serves one read-only transaction at the replica's current
// delivered prefix, at lease-clock time now — the deterministic form:
// an expired lease refuses (ErrLeaseExpired, counted), and a barrier
// ahead of the replica's watermark fails, which in the lockstep
// harnesses means the delivered-prefix contract broke.
func (r *Replica) TryReadAt(tx gtpcc.Tx, barrier, now uint64) (ReadResult, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.leaseValidLocked(now) {
		return ReadResult{}, r.refuse()
	}
	if r.watermark < barrier {
		return ReadResult{}, fmt.Errorf("store: replica %d of warehouse %d read barrier %d ahead of delivered prefix %d",
			r.cfg.Idx, r.shard.Warehouse(), barrier, r.watermark)
	}
	return r.readLocked(tx, barrier)
}

// Read is TryReadAt that waits (up to timeout) for the delivered-prefix
// barrier instead of failing — the wall-clock form, where the replica's
// applier advances the watermark concurrently. The lease is re-checked
// throughout the wait, not just at serve time: a barrier this replica
// cannot meet usually means its log feed stalled — exactly the
// condition that lapses the lease — so the read refuses promptly with
// ErrLeaseExpired (the error the callers' serving-node fallback
// matches) instead of burning the whole timeout on a dead replica.
func (r *Replica) Read(tx gtpcc.Tx, barrier uint64, timeout time.Duration) (ReadResult, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	deadline := time.Now().Add(timeout)
	for r.watermark < barrier {
		if !r.leaseValidLocked(r.cfg.Clock()) {
			return ReadResult{}, r.refuse()
		}
		if r.closed || time.Now().After(deadline) {
			return ReadResult{}, fmt.Errorf("store: replica %d of warehouse %d read barrier %d not reached within %v (delivered prefix %d)",
				r.cfg.Idx, r.shard.Warehouse(), barrier, timeout, r.watermark)
		}
		// Feeds broadcast on every apply; the periodic wake exists to
		// re-check the lease and deadline when the feeder has gone
		// quiet (a stalled feeder never broadcasts). The wake flag is
		// set under the write lock, which cannot be acquired until this
		// waiter is parked in Wait (it holds the read lock until then),
		// so the wakeup cannot be lost.
		wake := false
		t := time.AfterFunc(5*time.Millisecond, func() {
			r.mu.Lock()
			wake = true
			r.mu.Unlock()
			r.cond.Broadcast()
		})
		for r.watermark < barrier && !wake && !r.closed {
			r.cond.Wait()
		}
		t.Stop()
	}
	if !r.leaseValidLocked(r.cfg.Clock()) {
		return ReadResult{}, r.refuse()
	}
	return r.readLocked(tx, barrier)
}

// readTx is the shared fast-read core of Executor and Replica: execute
// one read-only transaction against a shard at the current cut, report
// it to the audit (with the serving replica's identity and lease
// validity), and return the result. Callers hold their own lock.
func readTx(shard *Shard, tx gtpcc.Tx, barrier, watermark uint64, replica int32, leaseOK bool, onRead func(trace.FastReadRecord)) (ReadResult, error) {
	if tx.Home != shard.Warehouse() {
		return ReadResult{}, fmt.Errorf("store: read for warehouse %d routed to a replica of warehouse %d",
			tx.Home, shard.Warehouse())
	}
	val, rows, err := shard.ReadTx(tx)
	if err != nil {
		return ReadResult{}, err
	}
	if onRead != nil {
		onRead(trace.FastReadRecord{
			Group:       shard.Warehouse(),
			Watermark:   watermark,
			Barrier:     barrier,
			TxWatermark: shard.Applied(),
			Kind:        uint8(tx.Type),
			ReadSet:     readSetDigest(gtpcc.EncodeTx(tx)),
			Value:       val,
			Rows:        rows,
			Replica:     replica,
			LeaseOK:     leaseOK,
		})
	}
	return ReadResult{Value: val, Watermark: watermark}, nil
}

// readLocked executes the read at the replica's cut and reports it to
// the audit. The replica's apply sequence is, by determinism, a prefix
// of the group's — so the record's cut (TxWatermark) indexes the same
// serialization point the serving node's records define, and the
// conflict-graph checker can merge follower reads into the group's
// order exactly like leader reads (DESIGN.md §1e).
func (r *Replica) readLocked(tx gtpcc.Tx, barrier uint64) (ReadResult, error) {
	res, err := readTx(r.shard, tx, barrier, r.watermark, r.cfg.Idx, true, r.onRead)
	if err == nil {
		r.reads.Add(1)
	}
	return res, err
}

// Close stops an async replica's applier after draining shipped
// batches; inline replicas only mark themselves closed.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
	if r.queue != nil {
		close(r.queue)
		r.wg.Wait()
	}
}
