package gtpcc

import (
	"reflect"
	"testing"

	"flexcast/amcast"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := gen(t, 3, 0.95, false, 21)
	for i := 0; i < 20_000; i++ {
		tx := g.Next()
		buf := EncodeTx(tx)
		got, err := DecodeTx(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", tx.Type, err)
		}
		got.PayloadSize = tx.PayloadSize // decode reports the wire size
		got.Dst = got.Involved()         // and leaves the destination set to Involved
		if len(got.Lines) == 0 {
			got.Lines = nil
		}
		want := tx
		if len(want.Lines) == 0 {
			want.Lines = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", tx.Type, got, want)
		}
	}
}

func TestEncodedSizeMatchesNominalPayloadSize(t *testing.T) {
	g := gen(t, 8, 0.95, false, 5)
	for i := 0; i < 5_000; i++ {
		tx := g.Next()
		if got := len(EncodeTx(tx)); got != tx.PayloadSize {
			t.Fatalf("%s: encoded %d bytes, nominal %d", tx.Type, got, tx.PayloadSize)
		}
	}
}

func TestInvolvedMatchesDst(t *testing.T) {
	g := gen(t, 1, 0.9, false, 33)
	for i := 0; i < 20_000; i++ {
		tx := g.Next()
		if !reflect.DeepEqual(tx.Involved(), tx.Dst) {
			t.Fatalf("%s: Involved() = %v, Dst = %v", tx.Type, tx.Involved(), tx.Dst)
		}
	}
}

func TestNewOrderLinesConsistent(t *testing.T) {
	g := gen(t, 6, 0.95, true, 9)
	for i := 0; i < 20_000; i++ {
		tx := g.Next()
		if tx.Type != NewOrder {
			continue
		}
		if len(tx.Lines) != tx.Items {
			t.Fatalf("lines %d != items %d", len(tx.Lines), tx.Items)
		}
		for _, l := range tx.Lines {
			if l.Item < 0 || l.Item >= NumItems || l.Qty < 1 || l.Qty > 10 {
				t.Fatalf("invalid order line %+v", l)
			}
			if !tx.HasDstWarehouse(l.Supply) {
				t.Fatalf("line supply %d not in dst %v", l.Supply, tx.Dst)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{99},                       // unknown type
		{byte(Payment), 0x01},      // truncated
		{byte(StockLevel), 1, 255}, // truncated varint... 255 alone is a continuation byte
	}
	for _, buf := range bad {
		if _, err := DecodeTx(buf); err == nil {
			t.Fatalf("DecodeTx(%v) succeeded, want error", buf)
		}
	}
	// Non-zero padding is rejected.
	tx := Tx{Type: Delivery, Home: 2, PayloadSize: 40}
	buf := EncodeTx(tx)
	buf[len(buf)-1] = 7
	if _, err := DecodeTx(buf); err == nil {
		t.Fatal("non-zero padding accepted")
	}
}

func TestDecodeDefendsAgainstHugeLineCounts(t *testing.T) {
	buf := []byte{byte(NewOrder), 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	if _, err := DecodeTx(buf); err == nil {
		t.Fatal("huge order-line count accepted")
	}
}

// HasDstWarehouse reports whether g is one of the transaction's
// destinations (test helper mirroring amcast.Message.HasDst).
func (tx Tx) HasDstWarehouse(g amcast.GroupID) bool {
	for _, d := range tx.Dst {
		if d == g {
			return true
		}
	}
	return false
}

func TestPaymentDetail(t *testing.T) {
	g := gen(t, 4, 0.9, false, 61)
	for i := 0; i < 20_000; i++ {
		tx := g.Next()
		if tx.Type != Payment {
			continue
		}
		if tx.Amount < 1 || tx.Amount > MaxPayment {
			t.Fatalf("payment amount %d outside [1,%d]", tx.Amount, MaxPayment)
		}
		if tx.Customer < 0 || tx.Customer >= NumCustomers {
			t.Fatalf("payment customer %d", tx.Customer)
		}
		if tx.CustWarehouse == tx.Home && len(tx.Dst) != 1 {
			t.Fatalf("local payment with dst %v", tx.Dst)
		}
		if tx.CustWarehouse != tx.Home && len(tx.Dst) != 2 {
			t.Fatalf("remote payment with dst %v", tx.Dst)
		}
	}
}
