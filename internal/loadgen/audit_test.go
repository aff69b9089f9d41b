package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/durable"
	"flexcast/internal/gtpcc"
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

// TestDurableResultIsSequential: the recovery verification runs one
// group per worker; what it reports equals the groups verified one after
// another and summed in group order, wall-clock times aside.
func TestDurableResultIsSequential(t *testing.T) {
	cfg := shortCfg()
	cfg.Durable = true
	cfg.DurableDir = t.TempDir()
	cfg.DurableSnapshotEvery = 32
	r := auditRun(t, cfg, 300)
	got, err := r.verifyDurableRecovery()
	if err != nil {
		t.Fatal(err)
	}
	seqCfg := r.cfg
	seqCfg.Replicas, seqCfg.DurableDir, seqCfg.DurableFsyncEvery = 1, t.TempDir(), -1
	stats := make([]durable.RecoveryStats, len(r.proto.Groups))
	for i, g := range r.proto.Groups {
		if stats[i], err = r.verifyGroupRecovery(seqCfg, g); err != nil {
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
