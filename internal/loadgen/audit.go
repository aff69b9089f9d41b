package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"flexcast/internal/deploy"
	"flexcast/internal/gtpcc"
	"flexcast/internal/store"
)

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
