package gtpcc

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
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

// TestDecodeReportsNonZeroPadding puts one non-zero byte in the first
// word, a middle word and the sub-word tail of a padding that starts off
// word alignment: each is rejected, naming its offset.
func TestDecodeReportsNonZeroPadding(t *testing.T) {
	tx := Tx{Type: StockLevel, Home: 2, Threshold: 300, PayloadSize: 45}
	clean := EncodeTx(tx)
	if _, err := DecodeTx(clean); err != nil {
		t.Fatal(err)
	}
	start := 4 // type, home, a 2-byte threshold
	for _, off := range []int{start, start + 3, start + 8 + 5, start + 24, len(clean) - 1} {
		buf := append([]byte(nil), clean...)
		buf[off] = 0x40
		_, err := DecodeTx(buf)
		if want := fmt.Sprintf("non-zero padding at offset %d", off); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("non-zero byte at %d: error %v, want %q", off, err, want)
		}
	}
}

// TestDecodeRejectsOverflowingField sets a 32-bit field to 2^32.
func TestDecodeRejectsOverflowingField(t *testing.T) {
	buf := binary.AppendUvarint([]byte{byte(OrderStatus), 1}, 1<<32)
	if _, err := DecodeTx(buf); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("a 33-bit customer decoded with error %v", err)
	}
}

// txStream is a 1 024-transaction local gTPC-C stream.
func txStream(b *testing.B) []Tx {
	g := gen(b, 3, 0.95, false, 1)
	txs := make([]Tx, 1024)
	for i := range txs {
		txs[i] = g.Next()
	}
	return txs
}

// Sinks keep the benchmarked calls' results live.
var (
	sinkBuf []byte
	sinkTx  Tx
)

func BenchmarkEncodeTx(b *testing.B) {
	txs := txStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBuf = EncodeTx(txs[i%len(txs)])
	}
}

func BenchmarkDecodeTx(b *testing.B) {
	txs := txStream(b)
	bufs := make([][]byte, len(txs))
	for i, tx := range txs {
		bufs[i] = EncodeTx(tx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := DecodeTx(bufs[i%len(bufs)])
		if err != nil {
			b.Fatal(err)
		}
		sinkTx = tx
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
