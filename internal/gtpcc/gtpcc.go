// Package gtpcc implements the paper's gTPC-C benchmark (§5.3): TPC-C
// translated to atomic multicast (warehouses are groups, transactions are
// multicast messages) and extended with geographic locality.
//
// Transaction mix (TPC-C §5.2.3): new-order 45 %, payment 43 %, and the
// three single-warehouse transactions order-status, delivery and
// stock-level at 4 % each. New-order transactions touch 5-15 items; each
// item is served by a remote warehouse with 2 % probability. When a
// remote warehouse is needed, the customer picks the warehouse nearest to
// its home warehouse with probability equal to the locality rate,
// otherwise the next nearest, and so on — modelling a wholesale supplier
// that ships a missing item from the closest stocked warehouse.
//
// For latency experiments the paper uses a global-only variant: only
// new-order and payment transactions, always spanning two or more
// warehouses, and messages addressed to more than three warehouses are
// excluded (they are vanishingly rare under TPC-C's 2 % rule).
package gtpcc

import (
	"fmt"
	"math/rand"

	"flexcast/amcast"
)

// TxType enumerates gTPC-C transaction types.
type TxType uint8

const (
	// NewOrder is the TPC-C new-order transaction (45 %).
	NewOrder TxType = iota + 1
	// Payment is the TPC-C payment transaction (43 %).
	Payment
	// OrderStatus is the TPC-C order-status transaction (4 %, local).
	OrderStatus
	// Delivery is the TPC-C delivery transaction (4 %, local).
	Delivery
	// StockLevel is the TPC-C stock-level transaction (4 %, local).
	StockLevel
)

// String names the transaction type.
func (t TxType) String() string {
	switch t {
	case NewOrder:
		return "new-order"
	case Payment:
		return "payment"
	case OrderStatus:
		return "order-status"
	case Delivery:
		return "delivery"
	case StockLevel:
		return "stock-level"
	default:
		return fmt.Sprintf("TxType(%d)", uint8(t))
	}
}

// Table sizes of the executable store (internal/store). They are scaled
// down from TPC-C's 100k items / 3k customers per district so that a
// simulated multi-warehouse deployment stays cache-resident while
// keeping enough rows for contention to be rare but present.
const (
	// NumItems is the number of stock items per warehouse.
	NumItems = 100
	// NumCustomers is the number of customers per warehouse.
	NumCustomers = 30
	// MaxPayment is the largest payment amount (TPC-C: 1..5000).
	MaxPayment = 5000
)

// OrderLine is one item of a new-order transaction: Qty units of Item
// supplied by warehouse Supply (the home warehouse for ~98 % of lines).
type OrderLine struct {
	Item   int32
	Supply amcast.GroupID
	Qty    int32
}

// Tx is one generated transaction. Besides the destination set used by
// the multicast layer it carries the full transaction detail, so the
// executable store (internal/store) can run it deterministically at
// every destination warehouse.
type Tx struct {
	Type TxType
	// Dst is the destination warehouse set (sorted, home included). A
	// decoded Tx leaves it nil; Involved computes it.
	Dst []amcast.GroupID
	// Home is the client's home warehouse (the transaction's district).
	Home amcast.GroupID
	// Items is the new-order item count (0 for other types).
	Items int
	// Lines holds the new-order order lines (len == Items).
	Lines []OrderLine
	// Customer is the customer the transaction concerns (new-order,
	// payment, order-status; resident at CustWarehouse for payment and
	// at Home otherwise).
	Customer int32
	// CustWarehouse is the customer's warehouse for payment transactions
	// (TPC-C: remote 15 % of the time).
	CustWarehouse amcast.GroupID
	// Amount is the payment amount.
	Amount int64
	// Rollback marks the TPC-C 1 % of new-orders that abort (an invalid
	// item number). The decision is carried in the payload so every
	// involved warehouse reaches the same verdict deterministically.
	Rollback bool
	// Threshold is the stock-level low-stock threshold (TPC-C: 10..20).
	Threshold int32
	// PayloadSize is the request size in bytes.
	PayloadSize int
}

// Config parameterizes a generator.
type Config struct {
	// Home is the client's home warehouse (its nearest group).
	Home amcast.GroupID
	// Nearest lists the other warehouses ordered by increasing distance
	// from Home (wan.NearestOrder).
	Nearest []amcast.GroupID
	// Locality is the locality rate (e.g. 0.90, 0.95, 0.99): the
	// probability that a remote pick takes the next-nearest warehouse in
	// the walk down Nearest.
	Locality float64
	// GlobalOnly restricts the mix to new-order and payment and forces
	// every transaction to span at least two warehouses (the paper's
	// latency workloads).
	GlobalOnly bool
	// MaxDst drops transactions addressed to more destinations (paper:
	// 3). Zero means 3.
	MaxDst int
	// Zipf, when > 1, skews the workload with a Zipfian distribution of
	// parameter s = Zipf: item and customer picks favour low indexes
	// (hot rows) and remote-warehouse picks favour the nearest
	// warehouses — the contention-skewed variant of the workload.
	// Deterministic under the generator's seed like everything else.
	// 0 keeps TPC-C's uniform picks; values in (0, 1] are invalid
	// (the Zipfian law needs s > 1 to normalize).
	Zipf float64
}

// Gen generates gTPC-C transactions for one client. Not safe for
// concurrent use; give each client its own Gen and seed.
type Gen struct {
	cfg Config
	rng *rand.Rand

	// remotePayments forces Payment transactions remote in GlobalOnly
	// mode; in the full mix TPC-C pays a remote customer 15 % of the time.
	remoteRate float64

	// Zipfian skew generators (nil when Config.Zipf is 0): hot items,
	// hot customers, and hot (near) destination warehouses.
	itemZ *rand.Zipf
	custZ *rand.Zipf
	destZ *rand.Zipf
}

// New builds a generator. The rng must be private to this generator.
func New(cfg Config, rng *rand.Rand) (*Gen, error) {
	if cfg.Home == amcast.NoGroup {
		return nil, fmt.Errorf("gtpcc: missing home warehouse")
	}
	if len(cfg.Nearest) == 0 {
		return nil, fmt.Errorf("gtpcc: empty nearest-warehouse order")
	}
	for _, g := range cfg.Nearest {
		if g == cfg.Home {
			return nil, fmt.Errorf("gtpcc: home warehouse %d in nearest order", g)
		}
	}
	if cfg.Locality <= 0 || cfg.Locality > 1 {
		return nil, fmt.Errorf("gtpcc: locality rate %v outside (0,1]", cfg.Locality)
	}
	if cfg.MaxDst == 0 {
		cfg.MaxDst = 3
	}
	if cfg.Zipf != 0 && cfg.Zipf <= 1 {
		return nil, fmt.Errorf("gtpcc: zipf parameter %v outside (1, inf)", cfg.Zipf)
	}
	remoteRate := 0.15 // TPC-C: 15 % of payments hit a remote warehouse
	if cfg.GlobalOnly {
		remoteRate = 1
	}
	g := &Gen{cfg: cfg, rng: rng, remoteRate: remoteRate}
	if cfg.Zipf > 1 {
		g.itemZ = rand.NewZipf(rng, cfg.Zipf, 1, uint64(NumItems-1))
		g.custZ = rand.NewZipf(rng, cfg.Zipf, 1, uint64(NumCustomers-1))
		g.destZ = rand.NewZipf(rng, cfg.Zipf, 1, uint64(len(cfg.Nearest)-1))
	}
	return g, nil
}

// item picks an item index: uniform, or the hot head of the Zipfian law.
func (g *Gen) item() int32 {
	if g.itemZ != nil {
		return int32(g.itemZ.Uint64())
	}
	return int32(g.rng.Intn(NumItems))
}

// customer picks a customer index (uniform or Zipf-skewed).
func (g *Gen) customer() int32 {
	if g.custZ != nil {
		return int32(g.custZ.Uint64())
	}
	return int32(g.rng.Intn(NumCustomers))
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config, rng *rand.Rand) *Gen {
	g, err := New(cfg, rng)
	if err != nil {
		panic(err)
	}
	return g
}

// Next generates the next transaction.
func (g *Gen) Next() Tx {
	for {
		tx := g.gen()
		if len(tx.Dst) > g.cfg.MaxDst {
			continue // the paper excludes >3-destination messages
		}
		if g.cfg.GlobalOnly && len(tx.Dst) < 2 {
			continue
		}
		return tx
	}
}

func (g *Gen) gen() Tx {
	roll := g.rng.Float64()
	if g.cfg.GlobalOnly {
		// Normalize new-order:payment to 45:43.
		if roll < 45.0/88.0 {
			return g.newOrder()
		}
		return g.payment()
	}
	switch {
	case roll < 0.45:
		return g.newOrder()
	case roll < 0.88:
		return g.payment()
	case roll < 0.92:
		return g.local(OrderStatus, 40)
	case roll < 0.96:
		return g.local(Delivery, 40)
	default:
		return g.local(StockLevel, 40)
	}
}

func (g *Gen) newOrder() Tx {
	items := 5 + g.rng.Intn(11) // uniform in [5,15]
	lines := make([]OrderLine, items)
	dst := []amcast.GroupID{g.cfg.Home}
	for i := range lines {
		lines[i] = OrderLine{
			Item:   g.item(),
			Supply: g.cfg.Home,
			Qty:    int32(1 + g.rng.Intn(10)),
		}
		if g.rng.Float64() < 0.02 { // TPC-C: 2 % of items are remote
			lines[i].Supply = g.pickRemote()
			dst = append(dst, lines[i].Supply)
		}
	}
	if g.cfg.GlobalOnly && len(dst) == 1 {
		lines[items-1].Supply = g.pickRemote()
		dst = append(dst, lines[items-1].Supply)
	}
	dst = amcast.NormalizeDst(dst)
	return Tx{
		Type:        NewOrder,
		Dst:         dst,
		Home:        g.cfg.Home,
		Items:       items,
		Lines:       lines,
		Customer:    g.customer(),
		Rollback:    g.rng.Float64() < 0.01, // TPC-C: 1 % of new-orders roll back
		PayloadSize: 64 + 12*items,
	}
}

func (g *Gen) payment() Tx {
	custW := g.cfg.Home
	dst := []amcast.GroupID{g.cfg.Home}
	if g.rng.Float64() < g.remoteRate {
		custW = g.pickRemote()
		dst = append(dst, custW)
	}
	dst = amcast.NormalizeDst(dst)
	return Tx{
		Type:          Payment,
		Dst:           dst,
		Home:          g.cfg.Home,
		Customer:      g.customer(),
		CustWarehouse: custW,
		Amount:        int64(1 + g.rng.Intn(MaxPayment)),
		PayloadSize:   48,
	}
}

func (g *Gen) local(t TxType, size int) Tx {
	tx := Tx{Type: t, Dst: []amcast.GroupID{g.cfg.Home}, Home: g.cfg.Home, PayloadSize: size}
	switch t {
	case OrderStatus:
		tx.Customer = g.customer()
	case StockLevel:
		tx.Threshold = int32(10 + g.rng.Intn(11)) // TPC-C: uniform in [10,20]
	}
	return tx
}

// NextRead generates a read-only single-shard transaction — TPC-C's
// read-only pair, order-status and stock-level at equal rates, at the
// home warehouse. These are the transactions the local-read fast path
// serves without multicast; read-mix workloads (loadgen -read-pct) draw
// from this stream. Customer picks honour the Zipf skew.
func (g *Gen) NextRead() Tx {
	if g.rng.Intn(2) == 0 {
		return g.local(OrderStatus, 40)
	}
	return g.local(StockLevel, 40)
}

// pickRemote walks the nearest-warehouse order: the nearest warehouse is
// chosen with probability Locality, otherwise the next nearest, and so on;
// the walk stops at the farthest warehouse (§5.3). With Zipf skew the
// walk is replaced by a Zipfian draw over the same order — nearest
// warehouses are the hot ones, with a heavier tail than the geometric
// walk produces.
func (g *Gen) pickRemote() amcast.GroupID {
	if g.destZ != nil {
		return g.cfg.Nearest[g.destZ.Uint64()]
	}
	for _, w := range g.cfg.Nearest[:len(g.cfg.Nearest)-1] {
		if g.rng.Float64() < g.cfg.Locality {
			return w
		}
	}
	return g.cfg.Nearest[len(g.cfg.Nearest)-1]
}
