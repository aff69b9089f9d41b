package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/gtpcc"
	"flexcast/internal/prototest"
	"flexcast/internal/trace"
)

var equivWarehouses = []amcast.GroupID{1, 2, 3}

// equivStream is a seeded gTPC-C stream over three warehouses (full
// mix: all five types, the 1 % rollbacks, remote order lines and remote
// payments), each message addressed to every involved warehouse.
func equivStream(seed int64, n int) []amcast.Message {
	rng := rand.New(rand.NewSource(seed))
	gens := make([]*gtpcc.Gen, len(equivWarehouses))
	for i, home := range equivWarehouses {
		var nearest []amcast.GroupID
		for _, w := range equivWarehouses {
			if w != home {
				nearest = append(nearest, w)
			}
		}
		gens[i] = gtpcc.MustNew(gtpcc.Config{Home: home, Nearest: nearest, Locality: 0.9},
			rand.New(rand.NewSource(seed*31+int64(i))))
	}
	msgs := make([]amcast.Message, n)
	for i := range msgs {
		tx := gens[rng.Intn(len(gens))].Next()
		msgs[i] = amcast.Message{
			ID:      amcast.MsgID(i + 1),
			Sender:  amcast.ClientNode(0),
			Dst:     tx.Dst,
			Payload: gtpcc.EncodeTx(tx),
		}
	}
	return msgs
}

// hashExecRecord folds every field of an execution record (and the
// verdict returned beside it) into h.
func hashExecRecord(h hash.Hash, code uint8, rec trace.ExecRecord) {
	le := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	flag := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	le(uint64(code), uint64(uint32(rec.Group)), rec.Seq, uint64(rec.TxID), uint64(rec.Kind), flag(rec.Committed), rec.ReadSet)
	le(uint64(len(rec.Involved)))
	for _, g := range rec.Involved {
		le(uint64(uint32(g)))
	}
	le(uint64(len(rec.Rows)))
	for _, r := range rec.Rows {
		le(uint64(uint32(r.Shard)), uint64(r.Table), uint64(uint32(r.Key)), flag(r.Write))
	}
}

// goldenExecRecords is hashExecRecord over every (verdict, record) the
// pre-change Apply — the one that built a record unconditionally and
// returned it by value — produced for equivStream(19, 20000), captured
// at commit 9edbc55 before Apply was edited.
const goldenExecRecords = "4fe50e4739e30a58fc3775bef2c8dfe6d8669728309fca42f2e224762e832ef8"

// TestApplyAuditedEqualsUnaudited is the equivalence behind "audit
// records are built only under an auditor": over a 20k-transaction
// stream, a shard applying with no record and a shard applying with one
// hold byte-identical state after every transaction, return the same
// verdicts, and the records equal, field for field, what Apply built
// when it built them always. (Under -race a Digest of a few hundred
// pending orders costs ~2 ms, so there the digests are compared after
// the first 1000 applications and every 64th one afterwards; the
// snapshot bytes are still compared after every one.)
func TestApplyAuditedEqualsUnaudited(t *testing.T) {
	race := prototest.RaceEnabled()
	bare := map[amcast.GroupID]*Shard{}
	audited := map[amcast.GroupID]*Shard{}
	for _, w := range equivWarehouses {
		bare[w] = MustNew(Config{Warehouse: w})
		audited[w] = MustNew(Config{Warehouse: w})
	}
	h := sha256.New()
	kinds := map[uint8]int{}
	aborted, multi := 0, 0
	var bufA, bufB []byte
	for i, m := range equivStream(19, 20000) {
		if len(m.Dst) > 1 {
			multi++
		}
		for _, g := range m.Dst {
			a, b := bare[g], audited[g]
			d := amcast.Delivery{Group: g, Seq: a.Applied(), Msg: m}
			var rec trace.ExecRecord
			codeA, codeB := a.Apply(d, nil), b.Apply(d, &rec)
			if codeA != codeB {
				t.Fatalf("tx %d at warehouse %d: verdict %d unaudited, %d audited", i, g, codeA, codeB)
			}
			if (!race || i < 1000 || i%64 == 0) && a.Digest() != b.Digest() {
				t.Fatalf("tx %d at warehouse %d: digests diverge", i, g)
			}
			bufA, bufB = a.AppendBinary(bufA[:0]), b.AppendBinary(bufB[:0])
			if !bytes.Equal(bufA, bufB) {
				t.Fatalf("tx %d at warehouse %d: snapshots diverge", i, g)
			}
			hashExecRecord(h, codeB, rec)
			kinds[rec.Kind]++
			if codeB == amcast.ResultAborted {
				aborted++
			}
		}
	}
	for _, w := range equivWarehouses {
		if bare[w].Digest() != audited[w].Digest() {
			t.Fatalf("warehouse %d: final digests diverge", w)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenExecRecords {
		t.Fatalf("execution records differ from the parent's: hash %s, want %s", got, goldenExecRecords)
	}
	// The stream must actually cover what the claim is about.
	for typ := gtpcc.NewOrder; typ <= gtpcc.StockLevel; typ++ {
		if kinds[uint8(typ)] == 0 {
			t.Fatalf("stream has no %s transaction", typ)
		}
	}
	if aborted == 0 || multi == 0 {
		t.Fatalf("stream has %d rollbacks and %d multi-warehouse transactions", aborted, multi)
	}
}

// shiftingDeliver is the order queue's reference model: the delivery
// transaction as it was when the queue shifted its remainder down on
// every pop (append(pending[:0], pending[n:]...)).
func shiftingDeliver(s *Shard) {
	s.applied++
	n := min(len(s.pending), 10)
	for _, o := range s.pending[:n] {
		s.balance[o.cust] += o.total
		s.deliveredSum += o.total
		s.delivered++
	}
	s.pending = append(s.pending[:0], s.pending[n:]...)
}

// TestOrderQueueMatchesShiftingQueue is the differential test of the
// re-sliced order queue against the shifting one: identical digest and
// snapshot bytes at every step, across growth and drain phases that
// force the backing array to be reallocated several times, and a clone
// is independent of its origin whichever of them moves.
func TestOrderQueueMatchesShiftingQueue(t *testing.T) {
	live, ref := MustNew(Config{Warehouse: 1}), MustNew(Config{Warehouse: 1})
	rng := rand.New(rand.NewSource(5))
	newOrder := func() gtpcc.Tx {
		lines := make([]gtpcc.OrderLine, 1+rng.Intn(4))
		for i := range lines {
			lines[i] = gtpcc.OrderLine{Item: int32(rng.Intn(gtpcc.NumItems)), Supply: 1, Qty: int32(1 + rng.Intn(5))}
		}
		return gtpcc.Tx{Type: gtpcc.NewOrder, Home: 1, Customer: int32(rng.Intn(gtpcc.NumCustomers)),
			Items: len(lines), Lines: lines, PayloadSize: 64 + 12*len(lines)}
	}
	deliverTx := gtpcc.Tx{Type: gtpcc.Delivery, Home: 1, PayloadSize: 40}

	reallocs, steps := 0, 0
	var bufA, bufB []byte
	step := func(deliverNow bool) {
		steps++
		id := uint64(steps)
		if !deliverNow {
			if len(live.pending) == cap(live.pending) {
				reallocs++ // this append moves the live window to a new array
			}
			tx := newOrder()
			live.Apply(deliver(id, live.applied, 1, tx), nil)
			ref.Apply(deliver(id, ref.applied, 1, tx), nil)
		} else {
			live.Apply(deliver(id, live.applied, 1, deliverTx), nil)
			shiftingDeliver(ref)
		}
		if live.Digest() != ref.Digest() {
			t.Fatalf("step %d: digest diverges from the shifting queue", steps)
		}
		bufA, bufB = live.AppendBinary(bufA[:0]), ref.AppendBinary(bufB[:0])
		if !bytes.Equal(bufA, bufB) {
			t.Fatalf("step %d: snapshot bytes diverge from the shifting queue", steps)
		}
	}
	// Grow (a delivery every 25th step), drain (every 2nd), grow again:
	// each phase change walks the live window off its backing array.
	for phase, every := range []int{25, 2, 25, 2, 7} {
		for i := 0; i < 400; i++ {
			step(i%every == every-1)
		}
		// Clone mid-stream, move both sides differently, and compare each
		// against an untouched twin of the other.
		// (The shifting queue writes its array in place, so its twin is a
		// deep copy, as every clone was when the queue shifted.)
		clone, twin := live.Clone(), ref.Clone()
		twin.pending = slices.Clone(twin.pending)
		clone.Apply(deliver(1<<30, clone.applied, 1, deliverTx), nil)
		clone.Apply(deliver(1<<30+1, clone.applied, 1, newOrder()), nil)
		if live.Digest() != twin.Digest() {
			t.Fatalf("phase %d: mutating a clone changed its origin", phase)
		}
		before := clone.Digest()
		step(true)
		step(false)
		if clone.Digest() != before {
			t.Fatalf("phase %d: mutating the origin changed its clone", phase)
		}
	}
	if reallocs < 3 {
		t.Fatalf("only %d backing-array reallocations in %d steps: the test no longer exercises them", reallocs, steps)
	}
}

// TestCloneAliasesNothingTheShardWrites: a clone shares the order log
// with its origin by prefix, which is sound only while nobody writes a
// logged entry. Clone, then run the origin through new-orders and
// deliveries until its queue has moved to a new backing array more than
// once, checking after every transaction that the clone still marshals
// and digests as it did — then poison what the clone can see of the
// shared array and check that the origin never reads it again.
func TestCloneAliasesNothingTheShardWrites(t *testing.T) {
	live := MustNew(Config{Warehouse: 1})
	rng := rand.New(rand.NewSource(11))
	apply := func(i int, s *Shard) {
		tx := gtpcc.Tx{Type: gtpcc.Delivery, Home: 1, PayloadSize: 40}
		if i%16 != 15 { // fifteen orders in, ten out
			lines := make([]gtpcc.OrderLine, 1+rng.Intn(4))
			for j := range lines {
				lines[j] = gtpcc.OrderLine{Item: int32(rng.Intn(gtpcc.NumItems)), Supply: 1, Qty: int32(1 + rng.Intn(5))}
			}
			tx = gtpcc.Tx{Type: gtpcc.NewOrder, Home: 1, Customer: int32(rng.Intn(gtpcc.NumCustomers)),
				Items: len(lines), Lines: lines, PayloadSize: 64 + 12*len(lines)}
		}
		s.Apply(deliver(uint64(i+1), s.applied, 1, tx), nil)
	}
	// Clone where the live queue has room for a round of orders and a
	// delivery before it must move: the first delivery after the clone
	// then pops entries of the array both sides see.
	start := 0
	for ; start < 100 || cap(live.pending)-len(live.pending) < 16; start++ {
		apply(start, live)
	}
	clone := live.Clone()
	if len(clone.pending) < 20 || &clone.pending[0] != &live.pending[0] {
		t.Fatalf("test premise: the clone of a %d-order queue does not share its log", len(clone.pending))
	}
	digest, data := clone.Digest(), clone.AppendBinary(nil)
	reallocs := 0
	for i := start; i < start+1500; i++ {
		if len(live.pending) == cap(live.pending) {
			reallocs++
		}
		apply(i, live)
		if clone.Digest() != digest || !bytes.Equal(clone.AppendBinary(nil), data) {
			t.Fatalf("transaction %d on the live shard changed its clone", i)
		}
	}
	if reallocs < 2 || live.delivered < clone.nextOrder {
		t.Fatalf("%d reallocations, %d delivered of the clone's %d orders: the live queue never left the shared array", reallocs, live.delivered, clone.nextOrder)
	}
	want := live.Digest()
	for i := range clone.pending {
		clone.pending[i] = order{cust: -1, total: -1}
	}
	if live.Digest() != want {
		t.Fatal("the live shard still reads the array it shared with its clone")
	}
}
