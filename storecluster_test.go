package flexcast_test

import (
	"testing"
	"time"

	"flexcast"
	"flexcast/internal/prototest"
	"flexcast/internal/runtime"
	"flexcast/internal/transport"
)

// driveStore runs a small scripted workload: a cross-warehouse
// new-order, a remote payment, and the three local transaction types.
func driveStore(t *testing.T, sc *flexcast.StoreCluster) {
	t.Helper()
	res, err := sc.NewOrder(1, 3, []flexcast.OrderLine{
		{Item: 7, Qty: 2},            // home-supplied
		{Item: 9, Supply: 3, Qty: 4}, // remote warehouse 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || len(res.Results) != 2 {
		t.Fatalf("new-order result: %+v", res)
	}
	if res, err = sc.Payment(2, 4, 1, 350); err != nil {
		t.Fatal(err)
	} else if !res.Committed {
		t.Fatalf("payment result: %+v", res)
	}
	if res, err = sc.Payment(2, 2, 5, 99); err != nil || !res.Committed {
		t.Fatalf("local payment: %+v, %v", res, err)
	}
	if res, err = sc.OrderStatus(1, 3); err != nil || !res.Committed {
		t.Fatalf("order-status: %+v, %v", res, err)
	}
	if res, err = sc.DeliverOrders(1); err != nil || !res.Committed {
		t.Fatalf("delivery: %+v, %v", res, err)
	}
	if res, err = sc.StockLevel(3, 15); err != nil || !res.Committed {
		t.Fatalf("stock-level: %+v, %v", res, err)
	}
}

func TestStoreCluster(t *testing.T) {
	for _, proto := range []flexcast.Protocol{
		flexcast.FlexCast, flexcast.Distributed, flexcast.Hierarchical,
	} {
		t.Run(proto.String(), func(t *testing.T) {
			sc, err := flexcast.NewStoreCluster(flexcast.StoreClusterConfig{
				Protocol: proto, Warehouses: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			driveStore(t, sc)
			if err := sc.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStoreClusterDeterministicDigests runs the same scripted workload
// on two independent clusters: every warehouse must land on a
// byte-identical digest (the store is a deterministic state machine
// over the delivery order, which the scripted closed-loop workload
// fixes).
func TestStoreClusterDeterministicDigests(t *testing.T) {
	build := func() *flexcast.StoreCluster {
		sc, err := flexcast.NewStoreCluster(flexcast.StoreClusterConfig{Warehouses: 4})
		if err != nil {
			t.Fatal(err)
		}
		driveStore(t, sc)
		return sc
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	for _, w := range a.Warehouses() {
		da, err := a.Digest(w)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Digest(w)
		if err != nil {
			t.Fatal(err)
		}
		if da != db {
			t.Fatalf("warehouse %d digests diverge across identical runs", w)
		}
	}
	if _, err := a.Digest(99); err == nil {
		t.Fatal("unknown warehouse accepted")
	}
}

// TestStoreClusterFastReads exercises the local-read fast path:
// read-only transactions bypass the multicast, carry result values, and
// observe the issuing client's own committed writes (the delivered-
// prefix barrier gives read-your-writes).
func TestStoreClusterFastReads(t *testing.T) {
	sc, err := flexcast.NewStoreCluster(flexcast.StoreClusterConfig{Warehouses: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	// A fresh customer has no orders.
	res, err := sc.OrderStatus(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FastPath || res.ID != 0 {
		t.Fatalf("order-status did not take the fast path: %+v", res)
	}
	if res.Value != -1 {
		t.Fatalf("fresh customer's last order = %d, want -1", res.Value)
	}

	// Commit a new-order, then read: the fast path must see it.
	if _, err := sc.NewOrder(2, 9, []flexcast.OrderLine{{Item: 1, Qty: 2}}); err != nil {
		t.Fatal(err)
	}
	if res, err = sc.OrderStatus(2, 9); err != nil {
		t.Fatal(err)
	}
	if !res.FastPath || res.Value != 0 {
		t.Fatalf("fast read after committed new-order = %+v, want order id 0", res)
	}

	// Stock-level reads report the scan's count on the fast path.
	if res, err = sc.StockLevel(2, 15); err != nil || !res.FastPath || !res.Committed {
		t.Fatalf("stock-level fast read: %+v, %v", res, err)
	}
	if res.Value < 0 {
		t.Fatalf("stock-level count = %d", res.Value)
	}

	// The multicast path remains available and equivalent in verdict.
	slow, err := flexcast.NewStoreCluster(flexcast.StoreClusterConfig{
		Warehouses: 4, DisableFastReads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if res, err = slow.OrderStatus(2, 9); err != nil || !res.Committed {
		t.Fatalf("multicast order-status: %+v, %v", res, err)
	}
	if res.FastPath || res.ID == 0 {
		t.Fatalf("DisableFastReads still took the fast path: %+v", res)
	}

	if err := sc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreClusterValidation(t *testing.T) {
	sc, err := flexcast.NewStoreCluster(flexcast.StoreClusterConfig{Warehouses: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.NewOrder(1, 0, nil); err == nil {
		t.Fatal("empty new-order accepted")
	}
	if _, err := sc.NewOrder(1, 0, []flexcast.OrderLine{{Item: -5, Qty: 1}}); err == nil {
		t.Fatal("negative item accepted")
	}
	if _, err := sc.NewOrder(1, -3, []flexcast.OrderLine{{Item: 1, Qty: 1}}); err == nil {
		t.Fatal("negative customer accepted")
	}
	if _, err := sc.Payment(1, 2, 1<<20, 5); err == nil {
		t.Fatal("out-of-range customer accepted")
	}
	if _, err := sc.OrderStatus(1, -1); err == nil {
		t.Fatal("negative order-status customer accepted")
	}
	if _, err := sc.Payment(1, 2, 0, 0); err == nil {
		t.Fatal("zero payment accepted")
	}
	if _, err := sc.Payment(1, 99, 0, 5); err == nil {
		t.Fatal("payment to unknown warehouse accepted")
	}
}

// TestSessionFollowerReads deploys follower read replicas and drives a
// session: a write the session completed must be visible to its next
// read (read-your-writes), the read must be served by a lease-holding
// follower at the follower's own watermark, and reads must stay
// monotonic as they round-robin across replicas. It runs with every
// envelope hand-off poisoned after its call returns (the borrow-only
// contract of DESIGN.md §1b): the public cluster keeps no lent slice.
func TestSessionFollowerReads(t *testing.T) {
	prototest.PoisonLoans(t, &runtime.Scrub, &transport.Scrub)
	sc, err := flexcast.NewStoreCluster(flexcast.StoreClusterConfig{
		Warehouses:   3,
		ReadReplicas: 2,
		// Generous term: the wall-clock lease (renewed by the NewOrder
		// feed below) must survive the read loop even on a loaded CI
		// runner; lease *expiry* behavior is covered deterministically
		// in internal/store and internal/smr.
		LeaseTerm: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	s := sc.Session()
	res, err := s.NewOrder(1, 3, []flexcast.OrderLine{{Item: 7, Qty: 2}})
	if err != nil || !res.Committed {
		t.Fatalf("new-order: %+v, %v", res, err)
	}

	sawFollower := false
	var lastOrder int64 = -2
	for i := 0; i < 4; i++ {
		rd, err := s.OrderStatus(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !rd.FastPath {
			t.Fatalf("session read left the fast path: %+v", rd)
		}
		if rd.Value < 0 {
			t.Fatalf("read-your-writes broken: session's own order invisible (value %d, replica %d)",
				rd.Value, rd.Replica)
		}
		if lastOrder != -2 && rd.Value != lastOrder {
			t.Fatalf("non-monotonic session reads: %d then %d", lastOrder, rd.Value)
		}
		lastOrder = rd.Value
		if rd.Replica > 0 {
			sawFollower = true
		}
	}
	if !sawFollower {
		t.Fatal("no session read was served by a follower replica (all fell back to the serving node)")
	}

	// A second, independent session starts with an empty barrier but
	// still reads consistent state.
	s2 := sc.Session()
	if rd, err := s2.StockLevel(1, 15); err != nil || !rd.Committed {
		t.Fatalf("fresh session stock-level: %+v, %v", rd, err)
	}
	if err := sc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreClusterFollowerReads: the cluster-level calls run in the
// cluster's default session, so on a cluster with follower replicas
// they load-balance over the lease holders like any session's reads
// while staying read-your-writes against the cluster's own writes.
func TestStoreClusterFollowerReads(t *testing.T) {
	sc, err := flexcast.NewStoreCluster(flexcast.StoreClusterConfig{
		Warehouses:   3,
		ReadReplicas: 2,
		// Generous term, as in TestSessionFollowerReads: the lease the
		// NewOrder feed renews must outlive the read loop.
		LeaseTerm: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	res, err := sc.NewOrder(1, 3, []flexcast.OrderLine{{Item: 7, Qty: 2}})
	if err != nil || !res.Committed {
		t.Fatalf("new-order: %+v, %v", res, err)
	}
	sawFollower := false
	for i := 0; i < 4; i++ {
		rd, err := sc.OrderStatus(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !rd.FastPath || rd.Value != 0 {
			t.Fatalf("read %d after the cluster's own new-order = %+v, want fast path and order id 0", i, rd)
		}
		if rd.Replica > 0 {
			sawFollower = true
		}
	}
	if !sawFollower {
		t.Fatal("no cluster-level read was served by a follower replica (all fell back to the serving node)")
	}
}

// TestSessionDisabledFastReads keeps sessions usable on clusters that
// route reads through the multicast.
func TestSessionDisabledFastReads(t *testing.T) {
	sc, err := flexcast.NewStoreCluster(flexcast.StoreClusterConfig{
		Warehouses:       2,
		DisableFastReads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	s := sc.Session()
	if res, err := s.Payment(1, 2, 4, 100); err != nil || !res.Committed {
		t.Fatalf("session payment: %+v, %v", res, err)
	}
	rd, err := s.OrderStatus(1, 4)
	if err != nil || !rd.Committed {
		t.Fatalf("multicast-routed session read: %+v, %v", rd, err)
	}
	if rd.FastPath {
		t.Fatal("DisableFastReads session read took the fast path")
	}
}
