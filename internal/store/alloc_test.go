package store

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/gtpcc"
	"flexcast/internal/prototest"
)

// TestAllocBudgetApply pins "a transaction pays only for what it
// keeps": with nobody auditing, applying a transaction allocates no more
// than decoding its payload does — no record, no rows, no shard set, no
// copy of the order lines. (A new-order also appends to the
// order queue; its amortised growth is a handful of allocations over the
// whole run and rounds to zero per transaction.)
func TestAllocBudgetApply(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	lines := make([]gtpcc.OrderLine, 10)
	for i := range lines {
		lines[i] = gtpcc.OrderLine{Item: int32(i * 7), Supply: 1, Qty: 3}
	}
	lines[9].Supply = 2 // one remote line
	txs := []gtpcc.Tx{
		{Type: gtpcc.NewOrder, Home: 1, Customer: 4, Items: len(lines), Lines: lines, PayloadSize: 64 + 12*len(lines)},
		{Type: gtpcc.Payment, Home: 1, Customer: 2, CustWarehouse: 1, Amount: 99, PayloadSize: 48},
		{Type: gtpcc.OrderStatus, Home: 1, Customer: 3, PayloadSize: 40},
		{Type: gtpcc.Delivery, Home: 1, PayloadSize: 40},
		{Type: gtpcc.StockLevel, Home: 1, Threshold: 15, PayloadSize: 40},
	}
	const runs = 200
	s := MustNew(Config{Warehouse: 1})
	// Enough undelivered orders that every measured delivery pops ten.
	for i := 0; i < 11*runs; i++ {
		s.Apply(deliver(uint64(i+1), s.applied, 1, txs[0]), nil)
	}
	for _, tx := range txs {
		d := deliver(1<<30, 0, 1, tx)
		decode := testing.AllocsPerRun(runs, func() {
			if _, err := gtpcc.DecodeTx(d.Msg.Payload); err != nil {
				t.Fatal(err)
			}
		})
		apply := testing.AllocsPerRun(runs, func() {
			d.Seq = s.applied
			if code := s.Apply(d, nil); code != amcast.ResultCommitted {
				t.Fatalf("%s: verdict %d", tx.Type, code)
			}
		})
		if apply > decode {
			t.Errorf("%s: Apply(d, nil) allocates %v per transaction, decoding its payload %v", tx.Type, apply, decode)
		}
		// A new-order keeps its order lines (one object); the destination
		// set, wanted only by an audit record, is never built.
		if tx.Type == gtpcc.NewOrder && apply > 2 {
			t.Errorf("%s: Apply(d, nil) allocates %v objects, want its order lines and at most one more", tx.Type, apply)
		}
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}
