package flexcast

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/deploy"
	"flexcast/internal/gtpcc"
	"flexcast/internal/store"
)

// StoreClusterConfig configures an executing cluster: a Cluster (the
// batched in-process runtime) whose groups each own one warehouse shard
// of the partitioned gTPC-C database (internal/store).
type StoreClusterConfig struct {
	// Protocol selects the multicast protocol (default FlexCast).
	Protocol Protocol
	// Warehouses is the number of warehouse groups; when Overlay/Tree
	// are unset a chain overlay (or a star tree for the hierarchical
	// protocol) over groups 1..Warehouses is built (default 4).
	Warehouses int
	// Overlay overrides the generated overlay (FlexCast, Skeen).
	Overlay *Overlay
	// Tree overrides the generated tree (hierarchical).
	Tree *Tree
	// Items and Customers size each warehouse's stock and customer
	// tables (defaults: the gTPC-C generator's table sizes).
	Items int
	// Customers is the customer-table size per warehouse.
	Customers int
	// StoreSeed drives the deterministic initial population (default 1).
	StoreSeed int64
	// MaxBatch and CallTimeout pass through to the underlying
	// ClusterConfig.
	MaxBatch int
	// CallTimeout bounds each transaction call (see
	// ClusterConfig.CallTimeout); it also bounds fast-path read waits.
	CallTimeout time.Duration
	// DisableFastReads forces the read-only single-shard transactions
	// (OrderStatus, StockLevel) through the full multicast instead of
	// the local-read fast path — the A/B baseline and a fallback should
	// a deployment want strictly multicast-ordered reads.
	DisableFastReads bool
	// ReadReplicas attaches that many follower read replicas to every
	// warehouse: each applies the warehouse's delivery log shipped from
	// the serving node (asynchronously, with its own delivered-prefix
	// watermark) and serves lease-gated fast reads, multiplying read
	// capacity by the replication factor (DESIGN.md §1e). Sessions
	// (Session) load-balance OrderStatus/StockLevel across them; an
	// expired lease falls back to the serving node. 0 keeps all reads
	// on the serving node.
	ReadReplicas int
	// LeaseTerm is the follower read-lease term (default 250ms). Leases
	// renew as the delivery log ships, so an idle warehouse's leases
	// lapse and its reads fall back to the serving node — by design: a
	// follower cut off from the log must stop serving within one term.
	LeaseTerm time.Duration
	// Durable selects the durable persistence backend (see
	// ClusterConfig.Durable): each warehouse's executor-wrapped engine
	// runs behind a WAL plus snapshot files under Durable.Dir, and a
	// restarted cluster recovers every shard before serving. nil keeps
	// the in-memory backend unchanged.
	Durable *DurableConfig
}

// OrderLine is one item of a NewOrder call: Qty units of Item supplied
// by warehouse Supply.
type OrderLine struct {
	// Item is the stock item index within the supplying warehouse.
	Item int
	// Supply is the supplying warehouse (NoGroup / zero: the order's
	// home warehouse).
	Supply GroupID
	// Qty is the quantity ordered (must be positive).
	Qty int
}

// TxResult is the outcome of one executed transaction.
type TxResult struct {
	// ID is the transaction's multicast message id (0 for fast-path
	// reads, which never enter the multicast).
	ID MsgID
	// Committed reports the verdict (all involved warehouses agree; a
	// disagreement fails the call instead).
	Committed bool
	// Results maps each involved warehouse to its reply's result code.
	Results map[GroupID]uint8
	// FastPath reports that the transaction was a read-only single-shard
	// transaction served by the local-read fast path: executed directly
	// against a local shard replica at the delivered-prefix barrier,
	// without a multicast round (DESIGN.md §1d/§1e).
	FastPath bool
	// Value is the fast-path read's result: the customer's most recent
	// order id for OrderStatus (-1 when none), the low-stock item count
	// for StockLevel. Multicast transactions carry no value (replies are
	// verdict-only).
	Value int64
	// Replica identifies which replica served a fast-path read: 0 is
	// the warehouse's serving node, >= 1 a lease-holding follower read
	// replica (sessions on clusters with ReadReplicas).
	Replica int32
}

// StoreCluster is an in-process deployment of the partially replicated
// gTPC-C store over atomic multicast: every transaction is multicast to
// the warehouses it involves, delivered in a cross-group serializable
// order, and executed deterministically at each involved shard. It is
// the executable-workload counterpart of Cluster.
type StoreCluster struct {
	c         *Cluster
	items     int
	customers int
	fastReads bool
	timeout   time.Duration
}

// NewStoreCluster builds and starts an executing cluster.
func NewStoreCluster(cfg StoreClusterConfig) (*StoreCluster, error) {
	if cfg.Protocol == 0 {
		cfg.Protocol = FlexCast
	}
	if cfg.Warehouses == 0 {
		cfg.Warehouses = 4
	}
	if cfg.Items == 0 {
		cfg.Items = gtpcc.NumItems
	}
	if cfg.Customers == 0 {
		cfg.Customers = gtpcc.NumCustomers
	}
	timeout := cfg.CallTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	if cfg.LeaseTerm == 0 {
		cfg.LeaseTerm = 250 * time.Millisecond
	}
	dep, err := deploy.New(deploy.Spec{
		Protocol: cfg.Protocol,
		Overlay:  cfg.Overlay,
		Tree:     cfg.Tree,
		Groups:   cfg.Warehouses,
	})
	if err != nil {
		return nil, err
	}
	dep = dep.WithStore(store.Config{
		Items:     cfg.Items,
		Customers: cfg.Customers,
		Seed:      cfg.StoreSeed,
	}, true, cfg.ReadReplicas, cfg.LeaseTerm)
	c, err := newCluster(ClusterConfig{
		MaxBatch:    cfg.MaxBatch,
		CallTimeout: cfg.CallTimeout,
		Durable:     cfg.Durable,
	}, dep)
	if err != nil {
		return nil, err
	}
	return &StoreCluster{
		c:         c,
		items:     cfg.Items,
		customers: cfg.Customers,
		fastReads: !cfg.DisableFastReads,
		timeout:   timeout,
	}, nil
}

// Warehouses returns the cluster's warehouse groups.
func (sc *StoreCluster) Warehouses() []GroupID { return sc.c.Groups() }

// DurableRecoveries reports, per warehouse, how the durable backend
// recovered at cluster start. Empty on in-memory clusters.
func (sc *StoreCluster) DurableRecoveries() []DurableRecovery {
	return sc.c.DurableRecoveries()
}

// checkCustomer validates a customer index against the table size.
func (sc *StoreCluster) checkCustomer(customer int) error {
	if customer < 0 || customer >= sc.customers {
		return fmt.Errorf("flexcast: customer %d outside [0,%d)", customer, sc.customers)
	}
	return nil
}

// exec multicasts one transaction and reports its verdict.
func (sc *StoreCluster) exec(tx gtpcc.Tx) (*TxResult, error) {
	_, call, err := sc.c.call(tx.Involved(), gtpcc.EncodeTx(tx))
	if err != nil {
		return nil, err
	}
	return txResult(call)
}

// txResult assembles the transaction result of a completed call: every
// involved warehouse must have executed and reached the same verdict
// (the call's fold, client.Calls).
func txResult(call *client.Call[callWaiter]) (*TxResult, error) {
	id := call.Msg.ID
	if g := call.Unexecuted; g != amcast.NoGroup {
		return nil, fmt.Errorf("flexcast: warehouse %d did not execute tx %s", g, id)
	}
	if call.Diverged {
		return nil, fmt.Errorf("flexcast: tx %s verdicts diverge across its destinations", id)
	}
	results := make(map[GroupID]uint8, len(call.Msg.Dst))
	for _, g := range call.Msg.Dst {
		results[g] = call.Result
	}
	return &TxResult{ID: id, Committed: call.Result == amcast.ResultCommitted, Results: results}, nil
}

// newOrderTx validates and assembles a new-order transaction.
func (sc *StoreCluster) newOrderTx(home GroupID, customer int, lines []OrderLine) (gtpcc.Tx, error) {
	if len(lines) == 0 {
		return gtpcc.Tx{}, fmt.Errorf("flexcast: new-order needs at least one order line")
	}
	if err := sc.checkCustomer(customer); err != nil {
		return gtpcc.Tx{}, err
	}
	for _, l := range lines {
		if l.Item < 0 || l.Item >= sc.items {
			return gtpcc.Tx{}, fmt.Errorf("flexcast: item %d outside [0,%d)", l.Item, sc.items)
		}
		if l.Qty <= 0 {
			return gtpcc.Tx{}, fmt.Errorf("flexcast: non-positive quantity %d", l.Qty)
		}
	}
	tx := gtpcc.Tx{
		Type:        gtpcc.NewOrder,
		Home:        home,
		Customer:    int32(customer),
		Items:       len(lines),
		PayloadSize: 64 + 12*len(lines),
	}
	for _, l := range lines {
		supply := l.Supply
		if supply == amcast.NoGroup {
			supply = home
		}
		tx.Lines = append(tx.Lines, gtpcc.OrderLine{
			Item: int32(l.Item), Supply: supply, Qty: int32(l.Qty),
		})
	}
	tx.Dst = tx.Involved()
	return tx, nil
}

// NewOrder executes a TPC-C new-order for a customer of the home
// warehouse; order lines may be supplied by remote warehouses, making
// the transaction multi-shard.
func (sc *StoreCluster) NewOrder(home GroupID, customer int, lines []OrderLine) (*TxResult, error) {
	tx, err := sc.newOrderTx(home, customer, lines)
	if err != nil {
		return nil, err
	}
	return sc.exec(tx)
}

// paymentTx validates and assembles a payment transaction.
func (sc *StoreCluster) paymentTx(home, customerWarehouse GroupID, customer int, amount int64) (gtpcc.Tx, error) {
	if amount <= 0 {
		return gtpcc.Tx{}, fmt.Errorf("flexcast: payment amount must be positive")
	}
	if err := sc.checkCustomer(customer); err != nil {
		return gtpcc.Tx{}, err
	}
	if customerWarehouse == amcast.NoGroup {
		customerWarehouse = home
	}
	tx := gtpcc.Tx{
		Type:          gtpcc.Payment,
		Home:          home,
		Customer:      int32(customer),
		CustWarehouse: customerWarehouse,
		Amount:        amount,
		PayloadSize:   48,
	}
	tx.Dst = tx.Involved()
	return tx, nil
}

// Payment executes a TPC-C payment: the home warehouse banks amount,
// the customer's warehouse debits the customer (multi-shard when they
// differ).
func (sc *StoreCluster) Payment(home, customerWarehouse GroupID, customer int, amount int64) (*TxResult, error) {
	tx, err := sc.paymentTx(home, customerWarehouse, customer, amount)
	if err != nil {
		return nil, err
	}
	return sc.exec(tx)
}

// readFast serves a read-only single-shard transaction on the local-read
// fast path: no multicast — the read executes directly against the
// warehouse's serving shard once it has applied every delivery this
// client has already observed there (the delivered-prefix barrier,
// giving read-your-writes and serializable reads; DESIGN.md §1d). The
// read's serving watermark folds back into the cluster-wide barrier, so
// successive reads are monotonic. Session reads additionally
// load-balance across follower replicas; this cluster-wide form always
// reads the serving node.
func (sc *StoreCluster) readFast(tx gtpcc.Tx) (*TxResult, error) {
	ex, ok := sc.c.dep.Executors[tx.Home]
	if !ok {
		return nil, fmt.Errorf("flexcast: unknown warehouse %d", tx.Home)
	}
	res, err := ex.Read(tx, sc.c.ObservedPrefix(tx.Home), sc.timeout)
	if err != nil {
		return nil, err
	}
	sc.c.observeRead(tx.Home, res.Watermark)
	return &TxResult{
		Committed: true,
		Results:   map[GroupID]uint8{tx.Home: amcast.ResultCommitted},
		FastPath:  true,
		Value:     res.Value,
	}, nil
}

// OrderStatus executes the read-only order-status transaction at one
// warehouse. Single-shard and read-only, it is served by the local-read
// fast path (no multicast) unless the cluster was configured with
// DisableFastReads; the result's Value is the customer's most recent
// order id (-1 when none).
func (sc *StoreCluster) OrderStatus(warehouse GroupID, customer int) (*TxResult, error) {
	if err := sc.checkCustomer(customer); err != nil {
		return nil, err
	}
	tx := gtpcc.Tx{
		Type: gtpcc.OrderStatus, Home: warehouse,
		Customer: int32(customer), PayloadSize: 40,
	}
	if sc.fastReads {
		return sc.readFast(tx)
	}
	tx.Dst = tx.Involved()
	return sc.exec(tx)
}

// DeliverOrders executes the delivery transaction at one warehouse,
// popping its oldest undelivered orders.
func (sc *StoreCluster) DeliverOrders(warehouse GroupID) (*TxResult, error) {
	tx := gtpcc.Tx{Type: gtpcc.Delivery, Home: warehouse, PayloadSize: 40}
	tx.Dst = tx.Involved()
	return sc.exec(tx)
}

// StockLevel executes the read-only stock-level transaction at one
// warehouse, served by the local-read fast path (no multicast) unless
// DisableFastReads is set; the result's Value is the low-stock item
// count.
func (sc *StoreCluster) StockLevel(warehouse GroupID, threshold int) (*TxResult, error) {
	tx := gtpcc.Tx{
		Type: gtpcc.StockLevel, Home: warehouse,
		Threshold: int32(threshold), PayloadSize: 40,
	}
	if sc.fastReads {
		return sc.readFast(tx)
	}
	tx.Dst = tx.Involved()
	return sc.exec(tx)
}

// Digest returns a warehouse shard's state digest — the witness that
// replicas (and independent runs with the same delivery order) hold
// byte-identical state. Quiesce the cluster (no in-flight Calls) before
// reading digests.
func (sc *StoreCluster) Digest(warehouse GroupID) ([32]byte, error) {
	ex, ok := sc.c.dep.Executors[warehouse]
	if !ok {
		return [32]byte{}, fmt.Errorf("flexcast: unknown warehouse %d", warehouse)
	}
	return ex.Digest(), nil
}

// CheckInvariants audits the quiesced store: per-shard conservation,
// the cross-shard payment and order-line conservation laws, and the
// byte-identity of each shard's mirror replica.
func (sc *StoreCluster) CheckInvariants() error {
	shards := make([]*store.Shard, 0, len(sc.c.dep.Executors))
	for _, g := range sc.c.Groups() {
		ex := sc.c.dep.Executors[g]
		if err := ex.CheckMirror(); err != nil {
			return err
		}
		shards = append(shards, ex.Shard())
	}
	return store.CheckInvariants(shards)
}

// Close stops the underlying cluster, then the follower read replicas
// (in that order: the cluster's nodes are the replicas' log feeders).
func (sc *StoreCluster) Close() {
	sc.c.Close()
	sc.c.dep.CloseFollowers()
}

// Session is one client session over the store: it carries its own
// barrier vector (amcast.PrefixTracker) fed by the replies and read
// watermarks this session alone has observed. Reads through a session
// are read-your-writes across shards (a multi-shard transaction's
// Call completes only after every involved warehouse replied, so the
// vector covers all of them) and monotonic across replicas (each read
// folds its serving watermark back in, so a later read on a lagging
// replica waits until that replica catches up to whatever this session
// has already seen). On clusters with ReadReplicas, session reads
// load-balance round-robin across the warehouse's lease-holding
// followers, falling back to the serving node when a lease has lapsed.
// A Session is safe for concurrent use; independent sessions share
// nothing but the cluster.
type Session struct {
	sc *StoreCluster

	mu      sync.Mutex
	barrier amcast.PrefixTracker
	rr      uint64
}

// Session opens a fresh client session (empty barrier: the session has
// observed nothing yet).
func (sc *StoreCluster) Session() *Session {
	return &Session{sc: sc, barrier: make(amcast.PrefixTracker)}
}

// exec runs one multicast transaction and folds the replies' delivered
// prefixes (and piggybacked watermarks) into the session barrier.
func (s *Session) exec(tx gtpcc.Tx) (*TxResult, error) {
	_, call, err := s.sc.c.call(tx.Involved(), gtpcc.EncodeTx(tx))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	for g, p := range call.Data.observed {
		s.barrier.Fold(g, p)
	}
	s.mu.Unlock()
	return txResult(call)
}

// NewOrder is StoreCluster.NewOrder through this session's barrier.
func (s *Session) NewOrder(home GroupID, customer int, lines []OrderLine) (*TxResult, error) {
	tx, err := s.sc.newOrderTx(home, customer, lines)
	if err != nil {
		return nil, err
	}
	return s.exec(tx)
}

// Payment is StoreCluster.Payment through this session's barrier.
func (s *Session) Payment(home, customerWarehouse GroupID, customer int, amount int64) (*TxResult, error) {
	tx, err := s.sc.paymentTx(home, customerWarehouse, customer, amount)
	if err != nil {
		return nil, err
	}
	return s.exec(tx)
}

// DeliverOrders is StoreCluster.DeliverOrders through this session's
// barrier.
func (s *Session) DeliverOrders(warehouse GroupID) (*TxResult, error) {
	tx := gtpcc.Tx{Type: gtpcc.Delivery, Home: warehouse, PayloadSize: 40}
	tx.Dst = tx.Involved()
	return s.exec(tx)
}

// OrderStatus serves the read-only order-status transaction at this
// session's barrier — on a lease-holding follower replica when the
// cluster has them, else on the serving node.
func (s *Session) OrderStatus(warehouse GroupID, customer int) (*TxResult, error) {
	if err := s.sc.checkCustomer(customer); err != nil {
		return nil, err
	}
	tx := gtpcc.Tx{
		Type: gtpcc.OrderStatus, Home: warehouse,
		Customer: int32(customer), PayloadSize: 40,
	}
	return s.read(tx)
}

// StockLevel serves the read-only stock-level transaction at this
// session's barrier — on a lease-holding follower replica when the
// cluster has them, else on the serving node.
func (s *Session) StockLevel(warehouse GroupID, threshold int) (*TxResult, error) {
	tx := gtpcc.Tx{
		Type: gtpcc.StockLevel, Home: warehouse,
		Threshold: int32(threshold), PayloadSize: 40,
	}
	return s.read(tx)
}

// read routes one read-only transaction: multicast when fast reads are
// disabled, else a follower replica (round-robin over the warehouse's
// lease holders) or the serving node. The read's serving watermark
// folds back into the session barrier — the monotonic-reads half of
// the session guarantee.
func (s *Session) read(tx gtpcc.Tx) (*TxResult, error) {
	if !s.sc.fastReads {
		tx.Dst = tx.Involved()
		return s.exec(tx)
	}
	ex, ok := s.sc.c.dep.Executors[tx.Home]
	if !ok {
		return nil, fmt.Errorf("flexcast: unknown warehouse %d", tx.Home)
	}
	s.mu.Lock()
	barrier := s.barrier.Prefix(tx.Home)
	turn := s.rr
	s.rr++
	s.mu.Unlock()

	var res store.ReadResult
	var err error
	var replica int32
	if reps := s.sc.c.dep.Followers[tx.Home]; len(reps) > 0 {
		rep := reps[turn%uint64(len(reps))]
		res, err = rep.Read(tx, barrier, s.sc.timeout)
		replica = rep.Idx()
		if errors.Is(err, store.ErrLeaseExpired) {
			// The follower's lease lapsed (idle warehouse, stalled log):
			// fall back to the serving node, which needs no lease.
			res, err = ex.Read(tx, barrier, s.sc.timeout)
			replica = 0
		}
	} else {
		res, err = ex.Read(tx, barrier, s.sc.timeout)
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.barrier.Fold(tx.Home, res.Watermark)
	s.mu.Unlock()
	return &TxResult{
		Committed: true,
		Results:   map[GroupID]uint8{tx.Home: amcast.ResultCommitted},
		FastPath:  true,
		Value:     res.Value,
		Replica:   replica,
	}, nil
}
