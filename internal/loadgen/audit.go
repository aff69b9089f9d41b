package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"flexcast/amcast"
	"flexcast/internal/deploy"
	"flexcast/internal/durable"
	"flexcast/internal/gtpcc"
	"flexcast/internal/store"
)

// auditExecution runs the post-drain execute-mode checks and assembles
// the execution measurement. Each group's replicas are hashed on the
// run's workers (eachGroup); the digests, invariants and totals are then
// combined in group order, so the result is the sequential one.
func (r *run) auditExecution() (*ExecuteResult, error) {
	if n := r.execDiverged.Load(); n > 0 {
		return nil, fmt.Errorf("loadgen: %d transactions received diverging verdicts across involved groups", n)
	}
	if n := r.execNoVerdict.Load(); n > 0 {
		return nil, fmt.Errorf("loadgen: %d replies carried no execution verdict (a shard skipped executing a transaction)", n)
	}
	if len(r.proto.Executors) == 0 {
		return nil, fmt.Errorf("loadgen: execute mode deployed no store executors")
	}
	groups := r.proto.Groups
	digests := make([][32]byte, len(groups))
	if err := eachGroup(len(groups), func(i int) (err error) {
		if digests[i], err = r.proto.Executors[groups[i]].AuditDigest(); err != nil {
			return fmt.Errorf("loadgen: group %d: %w", groups[i], err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	res := &ExecuteResult{
		PerType: make(map[string]*TxTypeStats),
		Shards:  len(r.proto.Executors),
	}
	shards := make([]*store.Shard, len(groups))
	global := sha256.New()
	var banked int64
	for i, g := range groups {
		shards[i] = r.proto.Executors[g].Shard()
		global.Write(digests[i][:])
		banked += shards[i].Totals().WarehouseYTD
		res.TxApplied += shards[i].Applied()
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

// eachGroup runs f(0) … f(n-1) on min(GOMAXPROCS, n) goroutines and
// returns the error of the lowest index that failed: the one a loop over
// the groups in order would have stopped at.
func eachGroup(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(goruntime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyDurableRecovery is the -durable run's ending, called once the
// nodes have stopped: every group's engine is crashed and its image
// recovered on a fresh stack that stack assembles (verifyGroupRecovery),
// one group per worker (eachGroup), and the per-group statistics are
// summed in group order.
func (r *run) verifyDurableRecovery(stack func(Config) (*deploy.Deployment, error)) (*DurableResult, error) {
	stats := make([]durable.RecoveryStats, len(r.proto.Groups))
	if err := eachGroup(len(stats), func(i int) (err error) {
		stats[i], err = r.verifyGroupRecovery(stack, r.proto.Groups[i])
		return err
	}); err != nil {
		return nil, err
	}
	return durableResult(stats), nil
}

// recoveryStack assembles the stack a crash image recovers on: the live
// one's shape, mirror included, for its state is in the canonical bytes,
// without the durable layer, which durable.Recover adds, or followers,
// which are not.
func recoveryStack(cfg Config) (*deploy.Deployment, error) {
	cfg.Durable, cfg.Replicas = false, 1
	return assemble(cfg, true)
}

// verifyGroupRecovery crashes group g's durable engine (durable.Crash,
// which waits for its persist job in flight) — the image a kill -9 would
// leave, since WAL appends hit the page cache unbuffered — and recovers
// it in place, on a deployment of its own, with durable.Recover's
// audits: the recovered FlexCast (or Skeen, or hierarchical) and store
// state byte-equal to the live one, and the replay exactly the live
// engine's inputs since its last checkpoint, i.e. recovery work bounded
// by checkpoint age, not run length. Any check failing fails the run.
func (r *run) verifyGroupRecovery(stack func(Config) (*deploy.Deployment, error), g amcast.GroupID) (durable.RecoveryStats, error) {
	img, err := durable.Crash(r.proto.Durables[g], false)
	if err != nil {
		return durable.RecoveryStats{}, fmt.Errorf("loadgen: %w", err)
	}
	fresh, err := stack(r.cfg)
	if err != nil {
		return durable.RecoveryStats{}, err
	}
	eng, err := fresh.NewEngine(g)
	if err != nil {
		return durable.RecoveryStats{}, err
	}
	de, err := durable.Recover(eng, img, durable.Options{SnapshotEvery: r.cfg.DurableSnapshotEvery, FsyncEvery: -1, Decode: fresh.DecodeSnapshot})
	if err != nil {
		return durable.RecoveryStats{}, fmt.Errorf("loadgen: group %d crash-image recovery: %w", g, err)
	}
	return de.Recovery(), de.Close()
}

// durableResult sums the groups' recovery statistics, in group order.
func durableResult(stats []durable.RecoveryStats) *DurableResult {
	res := &DurableResult{DigestsMatch: true}
	var totalElapsed time.Duration
	for _, st := range stats {
		res.Groups++
		if st.SnapshotEpoch > 0 {
			res.SnapshottedGroups++
		}
		res.Checkpoints += st.Checkpoints
		res.ReplayedEnvelopes += st.ReplayedEnvelopes
		res.MaxReplayedEnvelopes = max(res.MaxReplayedEnvelopes, st.ReplayedEnvelopes)
		res.MaxReplayedBytes = max(res.MaxReplayedBytes, st.ReplayedBytes)
		res.TornTailBytes += st.TornTailBytes
		totalElapsed += st.Elapsed
		res.RecoveryMaxUs = max(res.RecoveryMaxUs, st.Elapsed.Microseconds())
	}
	if res.Groups > 0 {
		res.RecoveryMeanUs = float64(totalElapsed.Microseconds()) / float64(res.Groups)
	}
	return res
}
