// Package store is the executable side of the gTPC-C workload: a
// deterministic, partitioned TPC-C state machine in which every
// warehouse is one shard owned by one multicast group (warehouse = group
// = shard — the paper's partial-replication model, §2 and §5.3). A shard
// holds the stock, customer and order rows of its warehouse only;
// transactions arrive as atomically multicast messages and are executed
// at every involved shard in delivery order:
//
//   - single-shard transactions (order-status, delivery, stock-level,
//     and the ~98 % of new-orders and ~85 % of payments that stay home)
//     execute locally at their one destination group;
//   - multi-shard new-order and payment execute at every involved
//     group, each group applying exactly the portion touching its rows
//     (remote stock decrements, remote customer debits).
//
// Execution is one-shot and fully deterministic from (payload, shard
// state): commit/abort verdicts derive from the payload alone (the
// TPC-C 1 % new-order rollback travels in the transaction), so involved
// shards never need to communicate and replicas replaying the same
// delivery sequence reach byte-identical state — Digest() is the
// auditable witness. An application can also be reported as a
// trace.ExecRecord so the cross-group serializability checker can
// verify the execution, not just the delivery order; the record is built
// only for a caller that asks for one.
//
// The static item catalog (prices) is replicated logic, not state: a
// pure function of (seed, warehouse, item), mirroring TPC-C's
// fully-replicated ITEM table, which is what lets a home warehouse
// price order lines supplied by remote warehouses without holding their
// rows.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"flexcast/amcast"
	"flexcast/internal/gtpcc"
	"flexcast/internal/trace"
)

// Config parameterizes one shard.
type Config struct {
	// Warehouse is the owning group (required).
	Warehouse amcast.GroupID
	// Items is the stock table size (default gtpcc.NumItems).
	Items int
	// Customers is the customer table size (default gtpcc.NumCustomers).
	Customers int
	// Seed drives the initial population; every shard of a deployment
	// must share it (default 1).
	Seed int64
}

func (c *Config) fill() error {
	if c.Warehouse == amcast.NoGroup {
		return fmt.Errorf("store: missing warehouse")
	}
	if c.Items == 0 {
		c.Items = gtpcc.NumItems
	}
	if c.Customers == 0 {
		c.Customers = gtpcc.NumCustomers
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// order is one undelivered order at its home warehouse; its id is its
// position, delivered+i in the pending queue. It is written once, by
// newOrder, and never after: clones and snapshots share it.
type order struct {
	cust  int32
	total int64
	lines []gtpcc.OrderLine
}

// Shard is one warehouse's partition of the gTPC-C database. Not safe
// for concurrent use: a shard is owned by the runtime that drains its
// group's engine, exactly like the engine itself.
type Shard struct {
	cfg Config

	// applied counts executed transactions (the shard-local serial
	// order the serializability checker audits).
	applied uint64

	// Stock table (per item).
	stockQty []int32
	stockYTD []int64 // quantity ordered against this warehouse's stock
	stockCnt []int32 // order count per item
	refills  int64   // number of +91 restocks (TPC-C §2.4.2.2)

	// Customer table.
	balance   []int64
	ytdPaid   []int64 // per-customer payment debits at this shard
	payCnt    []int32
	lastOrder []int64 // most recent home order id per customer, -1 none

	// Warehouse row.
	ytd          int64 // payments received as the home warehouse
	paidTotal    int64 // total debited from customers resident here
	delivered    uint64
	deliveredSum int64 // order totals credited back by delivery txs

	// Order queue (home warehouse only): the undelivered orders, ids
	// [delivered, nextOrder), oldest first. It is the live window of an
	// append-only log — newOrder appends, deliverOrders advances the head,
	// nothing writes an entry in between — so a Clone takes it by prefix
	// (capacity clipped, as core.capture takes its delivery log) and may
	// be read on another goroutine while this shard runs on. Delivered
	// entries are let go when append moves the window to a new array.
	nextOrder uint64
	pending   []order
	// orderedFrom[w] is the total quantity this warehouse's new-orders
	// sourced from supply warehouse w (including itself); the cross-
	// shard conservation check matches it against w's stockYTD.
	orderedFrom map[amcast.GroupID]int64
}

// New builds a freshly populated shard.
func New(cfg Config) (*Shard, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Shard{
		cfg:         cfg,
		stockQty:    make([]int32, cfg.Items),
		stockYTD:    make([]int64, cfg.Items),
		stockCnt:    make([]int32, cfg.Items),
		balance:     make([]int64, cfg.Customers),
		ytdPaid:     make([]int64, cfg.Customers),
		payCnt:      make([]int32, cfg.Customers),
		lastOrder:   make([]int64, cfg.Customers),
		orderedFrom: make(map[amcast.GroupID]int64),
	}
	for i := range s.stockQty {
		s.stockQty[i] = initStock(cfg.Seed, cfg.Warehouse, int32(i))
	}
	for c := range s.balance {
		s.balance[c] = initBalance(cfg.Seed, cfg.Warehouse, int32(c))
		s.lastOrder[c] = -1
	}
	return s, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Shard {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Warehouse returns the shard's owning group.
func (s *Shard) Warehouse() amcast.GroupID { return s.cfg.Warehouse }

// Applied reports how many transactions the shard has executed.
func (s *Shard) Applied() uint64 { return s.applied }

// splitmix64 is the population hash: every initial row value is a pure
// function of (seed, warehouse, table, key), so any node can recompute
// any warehouse's static catalog (prices) and initial sums without
// holding the shard.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func popHash(seed int64, w amcast.GroupID, table uint8, key int32) uint64 {
	return splitmix64(uint64(seed)<<40 ^ uint64(uint32(w))<<8 ^ uint64(table)<<48 ^ uint64(uint32(key)))
}

// ItemPrice returns the catalog price of an item at a supply warehouse —
// static, fully replicated data (TPC-C's ITEM table).
func ItemPrice(seed int64, w amcast.GroupID, item int32) int64 {
	return 1 + int64(popHash(seed, w, 0, item)%100)
}

func initStock(seed int64, w amcast.GroupID, item int32) int32 {
	return 10 + int32(popHash(seed, w, trace.TableStock, item)%91) // TPC-C: 10..100
}

func initBalance(seed int64, w amcast.GroupID, cust int32) int64 {
	return 1_000 + int64(popHash(seed, w, trace.TableCustomer, cust)%9_000)
}

// initBalanceSum recomputes the shard's initial customer balance total.
func initBalanceSum(cfg Config) int64 {
	var sum int64
	for c := 0; c < cfg.Customers; c++ {
		sum += initBalance(cfg.Seed, cfg.Warehouse, int32(c))
	}
	return sum
}

func initStockSum(cfg Config) int64 {
	var sum int64
	for i := 0; i < cfg.Items; i++ {
		sum += int64(initStock(cfg.Seed, cfg.Warehouse, int32(i)))
	}
	return sum
}

// Apply executes one delivered message against the shard and returns
// the client-visible verdict (amcast.ResultCommitted,
// amcast.ResultAborted, or amcast.ResultNone for deliveries that are not
// transactions: flush multicasts, foreign payloads). It must be called
// in delivery order; determinism is the contract that keeps replicas and
// recovery replays byte-identical.
//
// rec, when non-nil, is overwritten with the execution record the
// serializability checker audits (left untouched on ResultNone). nil
// means nobody is auditing: the mutations are the same, and the record's
// rows, shard set and payload digest are never built.
func (s *Shard) Apply(d amcast.Delivery, rec *trace.ExecRecord) uint8 {
	if d.Msg.Flags&amcast.FlagFlush != 0 {
		return amcast.ResultNone
	}
	tx, err := gtpcc.DecodeTx(d.Msg.Payload)
	if err != nil {
		// Not a transaction payload (pure-multicast workloads sharing a
		// deployment). Skipping is deterministic: every replica and
		// every involved shard sees the same bytes.
		return amcast.ResultNone
	}
	if rec != nil {
		*rec = trace.ExecRecord{
			Group:    s.cfg.Warehouse,
			Seq:      s.applied,
			TxID:     d.Msg.ID,
			Kind:     uint8(tx.Type),
			ReadSet:  readSetDigest(d.Msg.Payload),
			Involved: tx.Involved(),
		}
	}
	s.applied++
	committed := true
	switch tx.Type {
	case gtpcc.NewOrder:
		committed = s.newOrder(tx, rec)
	case gtpcc.Payment:
		s.payment(tx, rec)
	case gtpcc.OrderStatus:
		s.orderStatus(tx, rec)
	case gtpcc.Delivery:
		s.deliverOrders(rec)
	case gtpcc.StockLevel:
		s.stockLevel(tx, rec)
	}
	if rec != nil {
		rec.Committed = committed
	}
	if !committed {
		return amcast.ResultAborted
	}
	return amcast.ResultCommitted
}

// readSetDigest folds the transaction payload: all involved shards
// execute against the same decoded transaction iff they hash the same
// bytes (decoding is deterministic).
func readSetDigest(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// touch declares a row the transaction read or wrote, when there is an
// audit record to declare it in.
func (s *Shard) touch(rec *trace.ExecRecord, table uint8, key int32, write bool) {
	if rec != nil {
		rec.Rows = append(rec.Rows, trace.Row{Shard: s.cfg.Warehouse, Table: table, Key: key, Write: write})
	}
}

// index folds an arbitrary decoded key into the table: Apply must be
// total and deterministic over any decodable payload (including
// negative int32s produced by hostile uint32 encodings), never panic.
func index(v, n int32) int32 {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

// newOrder executes this shard's portion of a new-order: decrement
// stock for locally supplied lines; as the home warehouse additionally
// record the order and the customer's latest order. The TPC-C 1 %
// rollback travels in the payload, so every shard reaches the same
// verdict without communicating.
func (s *Shard) newOrder(tx gtpcc.Tx, rec *trace.ExecRecord) bool {
	if tx.Rollback {
		return false
	}
	for _, l := range tx.Lines {
		if l.Supply != s.cfg.Warehouse {
			continue
		}
		item := index(l.Item, int32(s.cfg.Items))
		q := s.stockQty[item] - l.Qty
		if q < 10 {
			q += 91 // TPC-C §2.4.2.2: restock low items
			s.refills++
		}
		s.stockQty[item] = q
		s.stockYTD[item] += int64(l.Qty)
		s.stockCnt[item]++
		s.touch(rec, trace.TableStock, item, true)
		// The table-version row: scans (stock-level) read it, writes
		// write it, giving scans exact R/W conflict semantics.
		s.touch(rec, trace.TableStock, -1, true)
	}
	if tx.Home == s.cfg.Warehouse {
		cust := index(tx.Customer, int32(s.cfg.Customers))
		var total int64
		for _, l := range tx.Lines {
			total += int64(l.Qty) * ItemPrice(s.cfg.Seed, l.Supply, index(l.Item, int32(s.cfg.Items)))
			s.orderedFrom[l.Supply] += int64(l.Qty)
		}
		// tx was decoded from the payload by Apply, so its lines are
		// this shard's to keep.
		s.pending = append(s.pending, order{cust: cust, total: total, lines: tx.Lines})
		s.lastOrder[cust] = int64(s.nextOrder)
		s.nextOrder++
		s.touch(rec, trace.TableOrders, 0, true)
		s.touch(rec, trace.TableCustomer, cust, true)
	}
	return true
}

// payment executes this shard's portion of a payment: the home
// warehouse banks the amount; the customer's warehouse debits the
// customer (TPC-C: remote 15 % of the time).
func (s *Shard) payment(tx gtpcc.Tx, rec *trace.ExecRecord) {
	if tx.Home == s.cfg.Warehouse {
		s.ytd += tx.Amount
		s.touch(rec, trace.TableWarehouse, 0, true)
	}
	if tx.CustWarehouse == s.cfg.Warehouse {
		cust := index(tx.Customer, int32(s.cfg.Customers))
		s.balance[cust] -= tx.Amount
		s.ytdPaid[cust] += tx.Amount
		s.payCnt[cust]++
		s.paidTotal += tx.Amount
		s.touch(rec, trace.TableCustomer, cust, true)
	}
}

// orderStatus reads the customer's most recent order (read-only,
// local): the value is the last home-order id (-1 when none). Both the
// multicast apply path and the fast-path ReadTx execute through it, so
// the two paths can never disagree on the rows they declare — the
// conflict-serializability audit depends on that agreement.
func (s *Shard) orderStatus(tx gtpcc.Tx, rec *trace.ExecRecord) int64 {
	cust := index(tx.Customer, int32(s.cfg.Customers))
	s.touch(rec, trace.TableCustomer, cust, false)
	s.touch(rec, trace.TableOrders, 0, false)
	return s.lastOrder[cust]
}

// deliverOrders pops up to ten of the oldest undelivered orders and
// credits their totals back to the ordering customers (local).
func (s *Shard) deliverOrders(rec *trace.ExecRecord) {
	n := len(s.pending)
	if n > 10 {
		n = 10
	}
	s.touch(rec, trace.TableOrders, 0, true)
	for _, o := range s.pending[:n] {
		s.balance[o.cust] += o.total
		s.deliveredSum += o.total
		s.delivered++
		s.touch(rec, trace.TableCustomer, o.cust, true)
	}
	// Advance the head and leave the entries alone — a clone may be
	// reading them. append reallocates, copying only live orders, once
	// the backing array's tail is used up; that is when they are freed.
	s.pending = s.pending[n:]
}

// stockLevel counts low-stock items (read-only, local). The scan reads
// the stock table-version row, conflicting with any stock write. Shared
// by the apply path and ReadTx like orderStatus.
func (s *Shard) stockLevel(tx gtpcc.Tx, rec *trace.ExecRecord) int64 {
	low := int64(0)
	for _, q := range s.stockQty {
		if q < tx.Threshold {
			low++
		}
	}
	s.touch(rec, trace.TableStock, -1, false)
	return low
}

// ReadTx executes a read-only transaction (order-status or stock-level)
// against the shard's current state without mutating it: the shard-local
// applied counter does not advance, so the read is a snapshot at the cut
// point between applied transactions — the serialization point the
// fast-path read audit (trace.FastReadRecord) records. It returns the
// read's value (order-status: the customer's most recent order id, -1
// when none; stock-level: the low-stock item count) and the rows read —
// computed by the same functions the multicast apply path runs, so both
// paths always declare identical row sets.
func (s *Shard) ReadTx(tx gtpcc.Tx) (int64, []trace.Row, error) {
	rec := trace.ExecRecord{Rows: make([]trace.Row, 0, 2)} // the most a read declares
	var val int64
	switch tx.Type {
	case gtpcc.OrderStatus:
		val = s.orderStatus(tx, &rec)
	case gtpcc.StockLevel:
		val = s.stockLevel(tx, &rec)
	default:
		return 0, nil, fmt.Errorf("store: %s is not a read-only transaction", tx.Type)
	}
	return val, rec.Rows, nil
}

// Clone returns an independent copy of the shard (snapshots, mirrors):
// nothing either side can mutate is shared. Its cost is the tables; the
// order queue, however long, is shared by prefix.
func (s *Shard) Clone() *Shard {
	c := *s
	c.stockQty = append([]int32(nil), s.stockQty...)
	c.stockYTD = append([]int64(nil), s.stockYTD...)
	c.stockCnt = append([]int32(nil), s.stockCnt...)
	c.balance = append([]int64(nil), s.balance...)
	c.ytdPaid = append([]int64(nil), s.ytdPaid...)
	c.payCnt = append([]int32(nil), s.payCnt...)
	c.lastOrder = append([]int64(nil), s.lastOrder...)
	// Clipped, so that either side's next append either lands beyond what
	// the other can see or moves to a new array.
	c.pending = s.pending[:len(s.pending):len(s.pending)]
	c.orderedFrom = make(map[amcast.GroupID]int64, len(s.orderedFrom))
	for w, q := range s.orderedFrom {
		c.orderedFrom[w] = q
	}
	return &c
}

// Digest returns a SHA-256 over the shard's canonical serialization:
// replicas of a group (and recovery replays) must agree byte-for-byte.
func (s *Shard) Digest() [32]byte {
	h := sha256.New()
	// Hashed through a buffer: a Write per word costs more than the hash.
	buf := make([]byte, 0, 4096)
	le := func(vs ...uint64) {
		for _, v := range vs {
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	le(uint64(uint32(s.cfg.Warehouse)), uint64(s.cfg.Items), uint64(s.cfg.Customers), uint64(s.cfg.Seed))
	le(s.applied, uint64(s.ytd), uint64(s.paidTotal), s.delivered, uint64(s.deliveredSum),
		s.nextOrder, uint64(s.refills))
	for i := range s.stockQty {
		le(uint64(uint32(s.stockQty[i])), uint64(s.stockYTD[i]), uint64(uint32(s.stockCnt[i])))
	}
	for c := range s.balance {
		le(uint64(s.balance[c]), uint64(s.ytdPaid[c]), uint64(uint32(s.payCnt[c])), uint64(s.lastOrder[c]))
	}
	le(uint64(len(s.pending)))
	for i, o := range s.pending {
		le(s.delivered+uint64(i), uint64(uint32(o.cust)), uint64(o.total), uint64(len(o.lines)))
		for _, l := range o.lines {
			le(uint64(uint32(l.Item)), uint64(uint32(l.Supply)), uint64(uint32(l.Qty)))
		}
	}
	ws := make([]amcast.GroupID, 0, len(s.orderedFrom))
	for w := range s.orderedFrom {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	le(uint64(len(ws)))
	for _, w := range ws {
		le(uint64(uint32(w)), uint64(s.orderedFrom[w]))
	}
	h.Write(buf)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Totals is the shard's contribution to the cross-shard invariants.
type Totals struct {
	// WarehouseYTD is the payment total banked as the home warehouse.
	WarehouseYTD int64
	// PaidTotal is the payment total debited from resident customers.
	PaidTotal int64
	// StockOrderedYTD is the quantity ordered against this shard's stock.
	StockOrderedYTD int64
	// OrderedFrom is the quantity this shard's new-orders sourced per
	// supply warehouse.
	OrderedFrom map[amcast.GroupID]int64
	// Applied counts executed transactions.
	Applied uint64
}

// Totals snapshots the invariant inputs.
func (s *Shard) Totals() Totals {
	t := Totals{
		WarehouseYTD: s.ytd,
		PaidTotal:    s.paidTotal,
		Applied:      s.applied,
		OrderedFrom:  make(map[amcast.GroupID]int64, len(s.orderedFrom)),
	}
	for w, q := range s.orderedFrom {
		t.OrderedFrom[w] = q
	}
	for _, y := range s.stockYTD {
		t.StockOrderedYTD += y
	}
	return t
}

// CheckLocalInvariants verifies the shard's self-consistency: stock and
// balance conservation against the seeded initial population.
func (s *Shard) CheckLocalInvariants() error {
	var qty, ordered int64
	for i := range s.stockQty {
		qty += int64(s.stockQty[i])
		ordered += s.stockYTD[i]
	}
	if want := initStockSum(s.cfg) - ordered + 91*s.refills; qty != want {
		return fmt.Errorf("store: warehouse %d stock conservation broken: have %d units, want %d (ordered %d, refills %d)",
			s.cfg.Warehouse, qty, want, ordered, s.refills)
	}
	var bal, paid int64
	for c := range s.balance {
		bal += s.balance[c]
		paid += s.ytdPaid[c]
	}
	if paid != s.paidTotal {
		return fmt.Errorf("store: warehouse %d payment ledger broken: per-customer %d, total %d",
			s.cfg.Warehouse, paid, s.paidTotal)
	}
	if want := initBalanceSum(s.cfg) - s.paidTotal + s.deliveredSum; bal != want {
		return fmt.Errorf("store: warehouse %d balance conservation broken: have %d, want %d (paid %d, delivered credits %d)",
			s.cfg.Warehouse, bal, want, s.paidTotal, s.deliveredSum)
	}
	return nil
}

// CheckInvariants verifies the cross-shard invariants over a quiesced
// deployment: every committed multi-shard transaction must have landed
// in full at every involved shard, or the conservation sums split.
//
//   - payment conservation: the amounts banked by home warehouses equal
//     the amounts debited from customers across all shards;
//   - order-line conservation: for every warehouse w, the quantities
//     all home warehouses sourced from w equal the quantity w's stock
//     recorded as ordered.
//
// Each shard's local conservation (stock and balances against the
// seeded population) is checked too.
func CheckInvariants(shards []*Shard) error {
	byW := make(map[amcast.GroupID]Totals, len(shards))
	var ytd, paid int64
	for _, s := range shards {
		if err := s.CheckLocalInvariants(); err != nil {
			return err
		}
		t := s.Totals()
		byW[s.Warehouse()] = t
		ytd += t.WarehouseYTD
		paid += t.PaidTotal
	}
	if ytd != paid {
		return fmt.Errorf("store: payment conservation broken: warehouses banked %d, customers paid %d (a cross-shard payment applied partially)",
			ytd, paid)
	}
	sourced := make(map[amcast.GroupID]int64)
	for _, t := range byW {
		for w, q := range t.OrderedFrom {
			sourced[w] += q
		}
	}
	ws := make([]amcast.GroupID, 0, len(byW))
	for w := range byW {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	for _, w := range ws {
		if got, want := byW[w].StockOrderedYTD, sourced[w]; got != want {
			return fmt.Errorf("store: order-line conservation broken at warehouse %d: stock recorded %d units ordered, homes sourced %d (a cross-shard new-order applied partially)",
				w, got, want)
		}
	}
	for w, q := range sourced {
		if _, ok := byW[w]; !ok && q != 0 {
			return fmt.Errorf("store: orders sourced from unknown warehouse %d (%d units)", w, q)
		}
	}
	return nil
}
