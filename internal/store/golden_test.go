package store

import (
	"encoding/hex"
	"flag"
	"slices"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/gtpcc"
	"flexcast/internal/prototest"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/snapshot.golden from this tree")

// TestSnapshotMatchesGolden pins the executor's record format byte for
// byte (the delta from the zero mark: the engine's body behind its
// length, the store's tables and watermark, then one instalment — the
// engine's behind its length and the order frames) — and, for the bare
// FlexCast stack, the engine's own. The cases are every stack of the
// delta gate: group 1 every 64 inputs of a seeded schedule, and every
// group once the schedule has drained.
func TestSnapshotMatchesGolden(t *testing.T) {
	var encs [][]byte
	for _, stack := range deltaStacks(t) {
		last := make(map[amcast.GroupID]amcast.DeltaEngine)
		inputs := 0
		runDeltaSchedule(stack, 1, 300, func(g amcast.GroupID, eng amcast.DeltaEngine) {
			last[g] = eng
			if inputs++; g == 1 && inputs%64 == 0 {
				encs = append(encs, marshalExec(t, eng))
			}
		})
		for _, g := range deltaGroups {
			encs = append(encs, marshalExec(t, last[g]))
		}
	}
	prototest.MatchGolden(t, "testdata/snapshot.golden", *updateGolden, encs)
}

// goldenShardDigests is Shard.Digest of warehouses 1, 2 and 3 (store
// seed 7) after equivStream(23, 5000): the SHA-256 of each shard's
// record. The bytes a digest covers are the replica and recovery
// comparisons' contract, so a faster digest must hash exactly them.
var goldenShardDigests = []string{
	"80412870c8bae48bf8a26ae1054ac79bf5cd9964ac9be85a27a89acc8fa77221",
	"6b4878db7cf3d72228d168aba345a53b440c556d47be81cf4b6572567523297e",
	"8686e0470ec2115adebd6a2919c9c132f82b2350937d92f94926ef4677979fbc",
}

// TestDigestMatchesGolden pins the digest's input bytes over a stream
// that leaves every section of the encoding populated: stock and
// customer rows, undelivered orders with their lines, and stock ordered
// from remote warehouses.
func TestDigestMatchesGolden(t *testing.T) {
	shards := make([]*Shard, len(equivWarehouses))
	for i, w := range equivWarehouses {
		shards[i] = MustNew(Config{Warehouse: w, Seed: 7})
	}
	for _, m := range equivStream(23, 5000) {
		for _, g := range m.Dst {
			s := shards[slices.Index(equivWarehouses, g)]
			s.Apply(amcast.Delivery{Group: g, Seq: s.Applied(), Msg: m}, nil)
		}
	}
	for i, s := range shards {
		if len(s.pending) == 0 || len(s.orderedFrom) == 0 {
			t.Fatalf("warehouse %d: %d undelivered orders, %d remote suppliers: the stream leaves a section empty",
				s.Warehouse(), len(s.pending), len(s.orderedFrom))
		}
		d := s.Digest()
		if got := hex.EncodeToString(d[:]); got != goldenShardDigests[i] {
			t.Errorf("warehouse %d: digest %s, want %s", s.Warehouse(), got, goldenShardDigests[i])
		}
	}
}

// TestDigestOrderLargerThanBuffer: a payload may carry thousands of
// order lines (a decoded count is bounded only by the payload's size);
// such an order is hashed, not refused.
func TestDigestOrderLargerThanBuffer(t *testing.T) {
	s := MustNew(Config{Warehouse: 1})
	lines := make([]gtpcc.OrderLine, 5000)
	for i := range lines {
		lines[i] = gtpcc.OrderLine{Item: int32(i), Supply: 1, Qty: 1}
	}
	tx := gtpcc.Tx{Type: gtpcc.NewOrder, Home: 1, Items: len(lines), Lines: lines}
	s.Apply(deliver(1, 0, 1, tx), nil)
	if len(s.pending) != 1 || s.Digest() != s.Clone().Digest() {
		t.Fatalf("%d undelivered orders; a clone's digest must equal the shard's", len(s.pending))
	}
}

// BenchmarkShardDigest digests a warehouse holding the undelivered
// orders of a 200k-transaction stream.
func BenchmarkShardDigest(b *testing.B) {
	s := MustNew(Config{Warehouse: equivWarehouses[0]})
	for _, m := range equivStream(23, 200000) {
		if slices.Contains(m.Dst, s.Warehouse()) {
			s.Apply(amcast.Delivery{Group: s.Warehouse(), Seq: s.Applied(), Msg: m}, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Digest()
	}
}
