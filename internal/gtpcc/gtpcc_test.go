package gtpcc

import (
	"math"
	"math/rand"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/wan"
)

func gen(t testing.TB, home amcast.GroupID, locality float64, globalOnly bool, seed int64) *Gen {
	t.Helper()
	g, err := New(Config{
		Home:       home,
		Nearest:    wan.NearestOrder(home),
		Locality:   locality,
		GlobalOnly: globalOnly,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	near := wan.NearestOrder(1)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"missing home", Config{Nearest: near, Locality: 0.9}},
		{"empty nearest", Config{Home: 1, Locality: 0.9}},
		{"home in nearest", Config{Home: 2, Nearest: near, Locality: 0.9}},
		{"zero locality", Config{Home: 1, Nearest: near}},
		{"locality above one", Config{Home: 1, Nearest: near, Locality: 1.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg, rng); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestFullMixFractions(t *testing.T) {
	g := gen(t, 1, 0.95, false, 42)
	counts := make(map[TxType]int)
	const n = 200_000
	for i := 0; i < n; i++ {
		counts[g.Next().Type]++
	}
	want := map[TxType]float64{
		NewOrder: 0.45, Payment: 0.43,
		OrderStatus: 0.04, Delivery: 0.04, StockLevel: 0.04,
	}
	for typ, frac := range want {
		got := float64(counts[typ]) / n
		if math.Abs(got-frac) > 0.01 {
			t.Errorf("%s fraction = %.3f, want %.2f±0.01", typ, got, frac)
		}
	}
}

func TestGlobalOnlyMix(t *testing.T) {
	g := gen(t, 6, 0.90, true, 7)
	counts := make(map[TxType]int)
	const n = 50_000
	for i := 0; i < n; i++ {
		tx := g.Next()
		counts[tx.Type]++
		if len(tx.Dst) < 2 {
			t.Fatal("global-only produced a local transaction")
		}
		if len(tx.Dst) > 3 {
			t.Fatalf("transaction with %d destinations not excluded", len(tx.Dst))
		}
	}
	if counts[OrderStatus]+counts[Delivery]+counts[StockLevel] != 0 {
		t.Fatal("global-only mix contains local transaction types")
	}
	ratio := float64(counts[NewOrder]) / float64(counts[NewOrder]+counts[Payment])
	if math.Abs(ratio-45.0/88.0) > 0.01 {
		t.Errorf("new-order ratio = %.3f, want %.3f", ratio, 45.0/88.0)
	}
}

func TestDstAlwaysContainsHomeSortedUnique(t *testing.T) {
	g := gen(t, 9, 0.95, true, 3)
	for i := 0; i < 20_000; i++ {
		tx := g.Next()
		foundHome := false
		for j, d := range tx.Dst {
			if d == 9 {
				foundHome = true
			}
			if j > 0 && tx.Dst[j-1] >= d {
				t.Fatalf("dst not sorted unique: %v", tx.Dst)
			}
		}
		if !foundHome {
			t.Fatalf("home missing from dst: %v", tx.Dst)
		}
	}
}

func TestLocalityConcentratesOnNearestWarehouse(t *testing.T) {
	for _, loc := range []float64{0.90, 0.95, 0.99} {
		g := gen(t, 1, loc, true, 11)
		nearest := wan.NearestOrder(1)[0]
		var remote, toNearest int
		for i := 0; i < 50_000; i++ {
			tx := g.Next()
			for _, d := range tx.Dst {
				if d == 1 {
					continue
				}
				remote++
				if d == nearest {
					toNearest++
				}
			}
		}
		got := float64(toNearest) / float64(remote)
		if math.Abs(got-loc) > 0.02 {
			t.Errorf("locality %.2f: nearest-warehouse fraction = %.3f", loc, got)
		}
	}
}

func TestHigherLocalityMeansNearerPicks(t *testing.T) {
	rank := func(home amcast.GroupID, loc float64) float64 {
		g := gen(t, home, loc, true, 5)
		near := wan.NearestOrder(home)
		pos := make(map[amcast.GroupID]int, len(near))
		for i, w := range near {
			pos[w] = i
		}
		sum, n := 0.0, 0
		for i := 0; i < 30_000; i++ {
			for _, d := range g.Next().Dst {
				if d != home {
					sum += float64(pos[d])
					n++
				}
			}
		}
		return sum / float64(n)
	}
	if rank(6, 0.99) >= rank(6, 0.90) {
		t.Error("higher locality did not reduce mean warehouse distance rank")
	}
}

func TestNewOrderItems(t *testing.T) {
	g := gen(t, 2, 0.95, false, 13)
	for i := 0; i < 50_000; i++ {
		tx := g.Next()
		if tx.Type != NewOrder {
			continue
		}
		if tx.Items < 5 || tx.Items > 15 {
			t.Fatalf("new-order items = %d, want 5..15", tx.Items)
		}
		if tx.PayloadSize != 64+12*tx.Items {
			t.Fatalf("payload size %d for %d items", tx.PayloadSize, tx.Items)
		}
	}
}

func TestPaymentRemoteRateFullMix(t *testing.T) {
	g := gen(t, 3, 0.95, false, 17)
	var payments, remote int
	for i := 0; i < 100_000; i++ {
		tx := g.Next()
		if tx.Type != Payment {
			continue
		}
		payments++
		if len(tx.Dst) > 1 {
			remote++
		}
	}
	got := float64(remote) / float64(payments)
	if math.Abs(got-0.15) > 0.01 {
		t.Errorf("remote payment rate = %.3f, want 0.15±0.01", got)
	}
}

func TestDeterminismAcrossSeeds(t *testing.T) {
	g1 := gen(t, 4, 0.9, true, 99)
	g2 := gen(t, 4, 0.9, true, 99)
	for i := 0; i < 1000; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Type != b.Type || len(a.Dst) != len(b.Dst) {
			t.Fatal("same seed produced different transactions")
		}
		for j := range a.Dst {
			if a.Dst[j] != b.Dst[j] {
				t.Fatal("same seed produced different destinations")
			}
		}
	}
}

func TestTxTypeString(t *testing.T) {
	if NewOrder.String() != "new-order" || TxType(99).String() != "TxType(99)" {
		t.Fatal("TxType.String wrong")
	}
}
