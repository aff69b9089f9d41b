package flexcast_test

import (
	"fmt"
	"sort"
	"sync"

	"flexcast"
)

// ExampleCluster demonstrates the basic embed-in-your-application flow:
// build an overlay, start a cluster, multicast, observe ordered
// deliveries.
func ExampleCluster() {
	ov, err := flexcast.NewOverlay([]flexcast.GroupID{1, 2, 3})
	if err != nil {
		panic(err)
	}
	var mu sync.Mutex
	delivered := make(map[flexcast.GroupID][]string)
	cluster, err := flexcast.NewCluster(flexcast.ClusterConfig{
		Overlay: ov,
		OnDeliver: func(d flexcast.Delivery) {
			mu.Lock()
			delivered[d.Group] = append(delivered[d.Group], string(d.Msg.Payload))
			mu.Unlock()
		},
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Close()

	// Call blocks until every destination delivered.
	if _, err := cluster.Call([]flexcast.GroupID{1, 3}, []byte("alpha")); err != nil {
		panic(err)
	}
	if _, err := cluster.Call([]flexcast.GroupID{1, 2, 3}, []byte("beta")); err != nil {
		panic(err)
	}

	mu.Lock()
	defer mu.Unlock()
	groups := make([]flexcast.GroupID, 0, len(delivered))
	for g := range delivered {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	for _, g := range groups {
		fmt.Printf("group %d: %v\n", g, delivered[g])
	}
	// Output:
	// group 1: [alpha beta]
	// group 2: [beta]
	// group 3: [alpha beta]
}

// ExampleStoreCluster runs transactions against the partially
// replicated gTPC-C store: a new-order with a cross-shard order line,
// then a read-only order-status served by the local-read fast path.
func ExampleStoreCluster() {
	sc, err := flexcast.NewStoreCluster(flexcast.StoreClusterConfig{Warehouses: 4})
	if err != nil {
		panic(err)
	}
	defer sc.Close()
	res, err := sc.NewOrder(1, 7, []flexcast.OrderLine{
		{Item: 3, Qty: 2},            // supplied by the home warehouse
		{Item: 9, Supply: 3, Qty: 1}, // cross-shard order line
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Committed)
	status, err := sc.OrderStatus(1, 7) // no ordering round
	if err != nil {
		panic(err)
	}
	fmt.Println(status.FastPath, status.Value)
	// Output:
	// true
	// true 0
}

// ExampleNewOverlay shows lca computation on a C-DAG overlay — the group
// a client must contact to multicast.
func ExampleNewOverlay() {
	// The paper's O1 rank order, restricted to four groups: rank grows
	// left to right, so 8 is everyone's potential ancestor.
	ov, err := flexcast.NewOverlay([]flexcast.GroupID{8, 7, 6, 5})
	if err != nil {
		panic(err)
	}
	fmt.Println(ov.Lca([]flexcast.GroupID{6, 5}))
	fmt.Println(ov.Lca([]flexcast.GroupID{5, 7, 6}))
	fmt.Println(ov.Rank(8), ov.Rank(5))
	// Output:
	// 6
	// 7
	// 0 3
}

// ExampleGreedyChain reproduces the paper's overlay-construction rule:
// start somewhere and repeatedly hop to the nearest unvisited group.
func ExampleGreedyChain() {
	// Distances on a line: 1 - 2 - 3 - 4.
	dist := func(a, b flexcast.GroupID) int64 {
		d := int64(a) - int64(b)
		if d < 0 {
			d = -d
		}
		return d
	}
	chain, err := flexcast.GreedyChain(2, []flexcast.GroupID{1, 2, 3, 4}, dist)
	if err != nil {
		panic(err)
	}
	fmt.Println(chain)
	// Output:
	// [2 1 3 4]
}
