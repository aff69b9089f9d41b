package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/deploy"
	"flexcast/internal/durable"
	"flexcast/internal/gtpcc"
	"flexcast/internal/store"
)

// auditRun is a run over a deployment of four executing groups that
// have each applied up to n seeded single-group transactions, stepped
// straight into their engines (no transport, no clients); the clients'
// payment tally is the warehouses' books.
func auditRun(t *testing.T, cfg Config, n int) *run {
	t.Helper()
	cfg.Groups, cfg.Execute = 4, true
	if err := cfg.Fill(); err != nil {
		t.Fatal(err)
	}
	proto, err := assemble(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{cfg: cfg, proto: proto}
	for i, g := range proto.Groups {
		eng, err := proto.NewEngine(g)
		if err != nil {
			t.Fatal(err)
		}
		gen := gtpcc.MustNew(gtpcc.Config{Home: g, Nearest: proto.Nearest(g), Locality: 1},
			rand.New(rand.NewSource(int64(i+1))))
		for seq := uint64(1); seq <= uint64(n); seq++ {
			tx := gen.Next()
			if len(tx.Dst) != 1 {
				continue
			}
			m := amcast.Message{ID: amcast.NewMsgID(i, seq), Sender: amcast.ClientNode(i), Dst: tx.Dst, Payload: gtpcc.EncodeTx(tx)}
			eng.OnEnvelope(amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
			eng.TakeDeliveries()
		}
		r.paidCommitted.Add(proto.Executors[g].Shard().Totals().WarehouseYTD)
	}
	return r
}

// TestAuditGlobalDigestIsSequential: the audit hashes the groups on
// several workers, and its global digest is still the hash of the shard
// digests in group order.
func TestAuditGlobalDigestIsSequential(t *testing.T) {
	r := auditRun(t, shortCfg(), 400)
	res, err := r.auditExecution()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, g := range r.proto.Groups {
		d := r.proto.Executors[g].Shard().Digest()
		h.Write(d[:])
	}
	if want := hex.EncodeToString(h.Sum(nil)); res.GlobalDigest != want {
		t.Fatalf("global digest %s, sequential %s", res.GlobalDigest, want)
	}
	if !res.ReplicaDigestsOK || !res.InvariantsOK || res.Shards != 4 || res.TxApplied == 0 {
		t.Fatalf("audit result %+v", res)
	}
}

// TestAuditNamesDivergedMirror: a group whose live shard applied one
// transaction its mirror did not fails the audit, named.
func TestAuditNamesDivergedMirror(t *testing.T) {
	r := auditRun(t, shortCfg(), 100)
	g := r.proto.Groups[2]
	sh := r.proto.Executors[g].Shard()
	tx := gtpcc.Tx{Type: gtpcc.Payment, Home: g, CustWarehouse: g, Amount: 7, PayloadSize: 40}
	sh.Apply(amcast.Delivery{Group: g, Seq: sh.Applied(), Msg: amcast.Message{
		ID: amcast.NewMsgID(9, 1), Sender: amcast.ClientNode(9), Dst: []amcast.GroupID{g}, Payload: gtpcc.EncodeTx(tx),
	}}, nil)
	_, err := r.auditExecution()
	if err == nil || !strings.Contains(err.Error(), "replica digests diverged") || !strings.Contains(err.Error(), "group 3:") {
		t.Fatalf("audit of a diverged group 3 mirror: %v", err)
	}
}

// durableAuditRun is auditRun with every group behind the durable
// backend, a checkpoint every 32 inputs.
func durableAuditRun(t *testing.T) *run {
	cfg := shortCfg()
	cfg.Durable = true
	cfg.DurableDir = t.TempDir()
	cfg.DurableSnapshotEvery = 32
	return auditRun(t, cfg, 300)
}

// TestDurableResultIsSequential: the recovery verification runs one
// group per worker; what it reports equals the groups of a run with the
// same inputs verified one after another and summed in group order,
// wall-clock times aside.
func TestDurableResultIsSequential(t *testing.T) {
	got, err := durableAuditRun(t).verifyDurableRecovery(recoveryStack)
	if err != nil {
		t.Fatal(err)
	}
	r := durableAuditRun(t)
	stats := make([]durable.RecoveryStats, len(r.proto.Groups))
	for i, g := range r.proto.Groups {
		if stats[i], err = r.verifyGroupRecovery(recoveryStack, g); err != nil {
			t.Fatal(err)
		}
	}
	want := durableResult(stats)
	if got.Groups != 4 || got.SnapshottedGroups == 0 || got.Checkpoints == 0 || got.ReplayedEnvelopes == 0 {
		t.Fatalf("durable verification %+v: want 4 groups recovered from snapshots, deltas and a replayed tail", got)
	}
	got.RecoveryMeanUs, got.RecoveryMaxUs = 0, 0
	want.RecoveryMeanUs, want.RecoveryMaxUs = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel %+v, sequential %+v", got, want)
	}
}

// amnesiac is a FlexCast engine whose delta reader reads nothing: a
// stack over it rebuilds the store half of every record and replays the
// single-group inputs since the last checkpoint into the same shard, but
// the delivered set and the history are gone.
type amnesiac struct{ *core.Engine }

func (amnesiac) ApplyDelta([]byte) error { return nil }

// TestDurableRecoveryComparesProtocolState: a recovery that rebuilds
// every shard but loses one group's protocol state fails the durable
// check, named, though its shard digest and replay count match.
func TestDurableRecoveryComparesProtocolState(t *testing.T) {
	r := durableAuditRun(t)
	victim := r.proto.Groups[1]
	lossy := func(cfg Config) (*deploy.Deployment, error) {
		d, err := deploy.New(deploy.Spec{Protocol: deploy.FlexCast, Groups: cfg.Groups})
		if err != nil {
			return nil, err
		}
		build := d.NewEngine
		d.NewEngine = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			eng, err := build(g)
			if g == victim {
				return amnesiac{eng.(*core.Engine)}, err
			}
			return eng, err
		}
		return d.WithStore(store.Config{Seed: cfg.StoreSeed}, true, 0, cfg.LeaseTerm), nil
	}
	live := r.proto.Executors[victim].Shard().Digest()
	fresh, err := lossy(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.verifyDurableRecovery(lossy)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("group %d", victim)) || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("recovery that lost group %d's protocol state: %v", victim, err)
	}
	// What the shard-digest check saw: the same shard, the same replay.
	eng, err := fresh.NewEngine(victim)
	if err != nil {
		t.Fatal(err)
	}
	de, err := durable.Wrap(eng, durable.Options{Dir: deploy.GroupDir(r.cfg.DurableDir, victim), SnapshotEvery: 32, FsyncEvery: -1, Decode: fresh.DecodeSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer de.Close()
	if fresh.Executors[victim].Shard().Digest() != live || de.Recovery().SnapshotEpoch == 0 {
		t.Fatalf("the lossy stack rebuilt a different shard, or restored nothing: %+v", de.Recovery())
	}
}
