package store

import (
	"bytes"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/gtpcc"
	"flexcast/internal/trace"
)

func shard(t *testing.T, w amcast.GroupID) *Shard {
	t.Helper()
	s, err := New(Config{Warehouse: w})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// deliver wraps a transaction as the delivery each involved shard sees.
func deliver(id uint64, seq uint64, g amcast.GroupID, tx gtpcc.Tx) amcast.Delivery {
	return amcast.Delivery{
		Group: g,
		Seq:   seq,
		Msg: amcast.Message{
			ID:      amcast.MsgID(id),
			Sender:  amcast.ClientNode(0),
			Dst:     tx.Involved(),
			Payload: gtpcc.EncodeTx(tx),
		},
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing warehouse accepted")
	}
	s := MustNew(Config{Warehouse: 3})
	if s.Warehouse() != 3 {
		t.Fatal("warehouse mismatch")
	}
}

func TestNewOrderUpdatesStockAndOrders(t *testing.T) {
	s1, s2 := shard(t, 1), shard(t, 2)
	tx := gtpcc.Tx{
		Type: gtpcc.NewOrder, Home: 1, Customer: 4, Items: 2,
		Lines: []gtpcc.OrderLine{
			{Item: 7, Supply: 1, Qty: 3},
			{Item: 9, Supply: 2, Qty: 5},
		},
		PayloadSize: 88,
	}
	var r1, r2 trace.ExecRecord
	c1 := s1.Apply(deliver(10, 0, 1, tx), &r1)
	c2 := s2.Apply(deliver(10, 0, 2, tx), &r2)
	if c1 != amcast.ResultCommitted || c2 != amcast.ResultCommitted {
		t.Fatalf("codes %d %d", c1, c2)
	}
	if r1.ReadSet != r2.ReadSet {
		t.Fatal("read-set digests differ across involved shards")
	}
	if s1.stockYTD[7] != 3 || s2.stockYTD[9] != 5 {
		t.Fatalf("stock YTD: %d %d", s1.stockYTD[7], s2.stockYTD[9])
	}
	if len(s1.pending) != 1 || len(s2.pending) != 0 {
		t.Fatalf("order queues: home %d, remote %d", len(s1.pending), len(s2.pending))
	}
	if s1.lastOrder[4] != 0 {
		t.Fatalf("lastOrder = %d", s1.lastOrder[4])
	}
	if s1.orderedFrom[1] != 3 || s1.orderedFrom[2] != 5 {
		t.Fatalf("orderedFrom = %v", s1.orderedFrom)
	}
	if err := CheckInvariants([]*Shard{s1, s2}); err != nil {
		t.Fatal(err)
	}
}

func TestNewOrderRollbackMutatesNothing(t *testing.T) {
	s := shard(t, 1)
	before := s.Digest()
	tx := gtpcc.Tx{
		Type: gtpcc.NewOrder, Home: 1, Rollback: true, Items: 1,
		Lines:       []gtpcc.OrderLine{{Item: 1, Supply: 1, Qty: 2}},
		PayloadSize: 76,
	}
	var rec trace.ExecRecord
	if code := s.Apply(deliver(11, 0, 1, tx), &rec); code != amcast.ResultAborted {
		t.Fatalf("code %d, want aborted", code)
	}
	if len(rec.Rows) != 0 {
		t.Fatalf("aborted tx touched rows: %v", rec.Rows)
	}
	after := s.Digest()
	// applied advances (the abort is part of the serial order) but no
	// table row changed.
	if before == after {
		t.Fatal("digest must reflect the applied counter")
	}
	if s.stockYTD[1] != 0 || len(s.pending) != 0 {
		t.Fatal("rollback mutated state")
	}
}

func TestPaymentConservationAcrossShards(t *testing.T) {
	home, cust := shard(t, 1), shard(t, 2)
	tx := gtpcc.Tx{
		Type: gtpcc.Payment, Home: 1, Customer: 3, CustWarehouse: 2,
		Amount: 250, PayloadSize: 48,
	}
	home.Apply(deliver(12, 0, 1, tx), nil)
	cust.Apply(deliver(12, 0, 2, tx), nil)
	if home.ytd != 250 || cust.paidTotal != 250 {
		t.Fatalf("ytd %d, paid %d", home.ytd, cust.paidTotal)
	}
	if err := CheckInvariants([]*Shard{home, cust}); err != nil {
		t.Fatal(err)
	}
	// A partially applied payment (home only) must break conservation.
	home2, cust2 := shard(t, 1), shard(t, 2)
	home2.Apply(deliver(13, 0, 1, tx), nil)
	if err := CheckInvariants([]*Shard{home2, cust2}); err == nil {
		t.Fatal("partial payment not detected")
	}
}

func TestPartialNewOrderBreaksConservation(t *testing.T) {
	s1, s2 := shard(t, 1), shard(t, 2)
	tx := gtpcc.Tx{
		Type: gtpcc.NewOrder, Home: 1, Items: 1,
		Lines:       []gtpcc.OrderLine{{Item: 2, Supply: 2, Qty: 4}},
		PayloadSize: 76,
	}
	s1.Apply(deliver(14, 0, 1, tx), nil) // home applies, supplier does not
	if err := CheckInvariants([]*Shard{s1, s2}); err == nil {
		t.Fatal("partial new-order not detected")
	}
}

func TestDeliveryCreditsCustomers(t *testing.T) {
	s := shard(t, 1)
	no := gtpcc.Tx{
		Type: gtpcc.NewOrder, Home: 1, Customer: 2, Items: 1,
		Lines:       []gtpcc.OrderLine{{Item: 5, Supply: 1, Qty: 2}},
		PayloadSize: 76,
	}
	s.Apply(deliver(15, 0, 1, no), nil)
	balBefore := s.balance[2]
	s.Apply(deliver(16, 1, 1, gtpcc.Tx{Type: gtpcc.Delivery, Home: 1, PayloadSize: 40}), nil)
	credit := 2 * ItemPrice(s.cfg.Seed, 1, 5)
	if got := s.balance[2] - balBefore; got != credit {
		t.Fatalf("delivery credit %d, want %d", got, credit)
	}
	if len(s.pending) != 0 || s.delivered != 1 {
		t.Fatalf("pending %d, delivered %d", len(s.pending), s.delivered)
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyTransactionsCommitWithoutMutating(t *testing.T) {
	s := shard(t, 4)
	base := s.Digest()
	for i, tx := range []gtpcc.Tx{
		{Type: gtpcc.OrderStatus, Home: 4, Customer: 1, PayloadSize: 40},
		{Type: gtpcc.StockLevel, Home: 4, Threshold: 15, PayloadSize: 40},
	} {
		var rec trace.ExecRecord
		if code := s.Apply(deliver(uint64(20+i), uint64(i), 4, tx), &rec); code != amcast.ResultCommitted {
			t.Fatalf("code %d", code)
		}
		for _, row := range rec.Rows {
			if row.Write {
				t.Fatalf("read-only tx wrote row %+v", row)
			}
		}
	}
	_ = base
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFlushAndForeignPayloadsAreNoOps(t *testing.T) {
	s := shard(t, 1)
	before := s.Digest()
	code := s.Apply(amcast.Delivery{Group: 1, Msg: amcast.Message{
		ID: 1, Dst: []amcast.GroupID{1}, Flags: amcast.FlagFlush,
	}}, nil)
	if code != amcast.ResultNone {
		t.Fatalf("flush executed: code %d", code)
	}
	code = s.Apply(amcast.Delivery{Group: 1, Msg: amcast.Message{
		ID: 2, Dst: []amcast.GroupID{1}, Payload: []byte("not a transaction"),
	}}, nil)
	if code != amcast.ResultNone {
		t.Fatalf("foreign payload executed: code %d", code)
	}
	if s.Digest() != before {
		t.Fatal("no-op deliveries mutated state")
	}
}

func TestDigestDeterministicAndOrderSensitive(t *testing.T) {
	a, b, c := shard(t, 1), shard(t, 1), shard(t, 1)
	// A delivery and a new-order do not commute: delivered-after leaves
	// an empty queue and a credited customer, delivered-before leaves
	// the order pending.
	tx1 := gtpcc.Tx{Type: gtpcc.Delivery, Home: 1, PayloadSize: 40}
	tx2 := gtpcc.Tx{
		Type: gtpcc.NewOrder, Home: 1, Customer: 1, Items: 1,
		Lines:       []gtpcc.OrderLine{{Item: 1, Supply: 1, Qty: 1}},
		PayloadSize: 76,
	}
	a.Apply(deliver(1, 0, 1, tx1), nil)
	a.Apply(deliver(2, 1, 1, tx2), nil)
	b.Apply(deliver(1, 0, 1, tx1), nil)
	b.Apply(deliver(2, 1, 1, tx2), nil)
	if a.Digest() != b.Digest() {
		t.Fatal("same sequence, different digests")
	}
	c.Apply(deliver(2, 0, 1, tx2), nil)
	c.Apply(deliver(1, 1, 1, tx1), nil)
	if a.Digest() == c.Digest() {
		t.Fatal("different order produced the same digest (order-insensitive digest is useless as a replica witness)")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := shard(t, 1)
	tx := gtpcc.Tx{
		Type: gtpcc.NewOrder, Home: 1, Customer: 1, Items: 1,
		Lines:       []gtpcc.OrderLine{{Item: 3, Supply: 1, Qty: 2}},
		PayloadSize: 76,
	}
	s.Apply(deliver(1, 0, 1, tx), nil)
	snap := s.Clone()
	want := snap.Digest()
	s.Apply(deliver(2, 1, 1, gtpcc.Tx{Type: gtpcc.Payment, Home: 1, Customer: 2, CustWarehouse: 1, Amount: 99, PayloadSize: 48}), nil)
	s.Apply(deliver(3, 2, 1, gtpcc.Tx{Type: gtpcc.Delivery, Home: 1, PayloadSize: 40}), nil)
	if snap.Digest() != want {
		t.Fatal("clone aliased the live shard")
	}
}

// TestClonePendingOrdersSurvive: a clone shares each pending order's
// lines with the live shard, so it must come through everything the
// live shard does to its order table — deliveries shifting the table in
// place, new orders appended into its spare capacity — and the live
// shard through the same done to the clone.
func TestClonePendingOrdersSurvive(t *testing.T) {
	newOrder := func(i int) gtpcc.Tx {
		return gtpcc.Tx{
			Type: gtpcc.NewOrder, Home: 1, Customer: int32(i % 5), Items: 2,
			Lines:       []gtpcc.OrderLine{{Item: int32(i), Supply: 1, Qty: 1 + int32(i%3)}, {Item: int32(i + 40), Supply: 1, Qty: 2}},
			PayloadSize: 76,
		}
	}
	churn := func(s *Shard, id uint64) {
		for i := 0; i < 3; i++ {
			s.Apply(deliver(id, s.applied, 1, gtpcc.Tx{Type: gtpcc.Delivery, Home: 1, PayloadSize: 40}), nil)
			id++
			for j := 0; j < 15; j++ {
				s.Apply(deliver(id, s.applied, 1, newOrder(int(id))), nil)
				id++
			}
		}
	}
	s := shard(t, 1)
	for i := 0; i < 25; i++ {
		s.Apply(deliver(uint64(i+1), uint64(i), 1, newOrder(i)), nil)
	}
	snap := s.Clone()
	want := snap.AppendBinary(nil)
	if !bytes.Equal(s.AppendBinary(nil), want) {
		t.Fatal("clone differs from the shard it was taken from")
	}
	churn(s, 100)
	if !bytes.Equal(snap.AppendBinary(nil), want) {
		t.Fatal("the live shard's deliveries and new orders changed its clone")
	}
	live := s.AppendBinary(nil)
	churn(snap, 500)
	if !bytes.Equal(s.AppendBinary(nil), live) {
		t.Fatal("the clone's deliveries and new orders changed the live shard")
	}
	if err := snap.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestApplyIsTotalOverHostileKeys: Apply must never panic, whatever
// int32 keys a decodable payload carries (negative values survive the
// uint32 varint round-trip) — it normalizes them deterministically.
func TestApplyIsTotalOverHostileKeys(t *testing.T) {
	a, b := shard(t, 1), shard(t, 1)
	txs := []gtpcc.Tx{
		{Type: gtpcc.NewOrder, Home: 1, Customer: -7, Items: 1,
			Lines:       []gtpcc.OrderLine{{Item: -5, Supply: 1, Qty: 2}},
			PayloadSize: 76},
		{Type: gtpcc.Payment, Home: 1, Customer: -1, CustWarehouse: 1, Amount: 5, PayloadSize: 48},
		{Type: gtpcc.OrderStatus, Home: 1, Customer: 1 << 30, PayloadSize: 40},
		{Type: gtpcc.StockLevel, Home: 1, Threshold: -3, PayloadSize: 40},
	}
	for i, tx := range txs {
		var ra, rb trace.ExecRecord
		ca := a.Apply(deliver(uint64(100+i), uint64(i), 1, tx), &ra)
		cb := b.Apply(deliver(uint64(100+i), uint64(i), 1, tx), &rb)
		if ca != cb || ra.ReadSet != rb.ReadSet {
			t.Fatalf("tx %d: hostile keys executed nondeterministically", i)
		}
	}
	if a.Digest() != b.Digest() {
		t.Fatal("hostile keys diverged replicas")
	}
	if err := a.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSeedChangesPopulation(t *testing.T) {
	a := MustNew(Config{Warehouse: 1, Seed: 1})
	b := MustNew(Config{Warehouse: 1, Seed: 2})
	if a.Digest() == b.Digest() {
		t.Fatal("different seeds produced identical populations")
	}
}
