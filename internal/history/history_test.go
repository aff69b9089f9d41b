package history

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"flexcast/amcast"
)

func node(id int, dst ...int) Node {
	n := Node{ID: amcast.MsgID(id)}
	for _, d := range dst {
		n.Dst = append(n.Dst, amcast.GroupID(d))
	}
	return n
}

func TestAddNode(t *testing.T) {
	h := New()
	if !h.AddNode(node(1, 1, 2)) {
		t.Fatal("first AddNode returned false")
	}
	if h.AddNode(node(1, 1, 2)) {
		t.Fatal("duplicate AddNode returned true")
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
	if !h.ContainsMsgTo(1) || !h.ContainsMsgTo(2) || h.ContainsMsgTo(3) {
		t.Fatal("ContainsMsgTo wrong after AddNode")
	}
}

func TestPlaceholderFillIn(t *testing.T) {
	h := New()
	h.AddEdge(1, 2) // materializes placeholders 1 and 2
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2 placeholders", h.Len())
	}
	if h.ContainsMsgTo(5) {
		t.Fatal("placeholder must have no destinations")
	}
	if h.AddNode(node(1, 5)) {
		t.Fatal("fill-in reported as new node")
	}
	if !h.ContainsMsgTo(5) {
		t.Fatal("destinations not filled into placeholder")
	}
	n, ok := h.NodeOf(1)
	if !ok || len(n.Dst) != 1 || n.Dst[0] != 5 {
		t.Fatalf("NodeOf(1) = %+v", n)
	}
}

func TestAppendDeliveredBuildsChain(t *testing.T) {
	h := New()
	h.AppendDelivered(node(1, 1))
	h.AppendDelivered(node(2, 1))
	h.AppendDelivered(node(3, 1))
	if h.LastDelivered() != 3 {
		t.Fatalf("LastDelivered = %v, want 3", h.LastDelivered())
	}
	if !h.DependsOn(3, 1) || !h.DependsOn(3, 2) || !h.DependsOn(2, 1) {
		t.Fatal("delivery chain dependencies missing")
	}
	if h.DependsOn(1, 3) {
		t.Fatal("reverse dependency must not hold")
	}
	if h.EdgeCount() != 2 {
		t.Fatalf("EdgeCount = %d, want 2", h.EdgeCount())
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	h := New()
	h.AddNode(node(1, 1))
	if h.AddEdge(1, 1) {
		t.Fatal("self edge added")
	}
	// Delivering the same id twice must not create a self loop.
	h.AppendDelivered(node(1, 1))
	h.AppendDelivered(node(1, 1))
	if h.EdgeCount() != 0 {
		t.Fatalf("EdgeCount = %d, want 0", h.EdgeCount())
	}
}

func TestMergeReportsNewAndFilledNodes(t *testing.T) {
	h := New()
	h.AddNode(node(1, 1))
	added := h.Merge(&amcast.HistDelta{
		Nodes: []amcast.HistNode{
			{ID: 1, Dst: []amcast.GroupID{1}}, // known
			{ID: 2, Dst: []amcast.GroupID{2}}, // new
		},
		Edges: []amcast.HistEdge{{From: 2, To: 3}}, // 3 is a new placeholder
	})
	ids := make(map[amcast.MsgID]bool)
	for _, n := range added {
		ids[n.ID] = true
	}
	if !ids[2] || !ids[3] || ids[1] {
		t.Fatalf("Merge reported %v, want {2,3}", ids)
	}
	if !h.DependsOn(3, 2) {
		t.Fatal("merged edge missing")
	}
}

func TestMergeNilIsNoop(t *testing.T) {
	h := New()
	if got := h.Merge(nil); got != nil {
		t.Fatalf("Merge(nil) = %v", got)
	}
}

func TestDiffSince(t *testing.T) {
	h := New()
	h.AppendDelivered(node(1, 1))
	d1, c1 := h.DiffSince(0)
	if len(d1.Nodes) != 1 || d1.Nodes[0].ID != 1 || len(d1.Edges) != 0 {
		t.Fatalf("first diff = %+v", d1)
	}
	// Nothing new: nil diff, same cursor.
	d2, c2 := h.DiffSince(c1)
	if d2 != nil || c2 != c1 {
		t.Fatalf("empty diff = %+v cursor %d->%d", d2, c1, c2)
	}
	h.AppendDelivered(node(2, 1))
	d3, _ := h.DiffSince(c1)
	if len(d3.Nodes) != 1 || d3.Nodes[0].ID != 2 || len(d3.Edges) != 1 {
		t.Fatalf("incremental diff = %+v", d3)
	}
	if d3.Edges[0] != (amcast.HistEdge{From: 1, To: 2}) {
		t.Fatalf("diff edge = %+v", d3.Edges[0])
	}
	// A cursor from zero sees everything.
	dAll, _ := h.DiffSince(0)
	if len(dAll.Nodes) != 2 || len(dAll.Edges) != 1 {
		t.Fatalf("full diff = %+v", dAll)
	}
}

func TestDiffRoundTripsThroughMerge(t *testing.T) {
	src := New()
	src.AppendDelivered(node(1, 1, 2))
	src.AppendDelivered(node(2, 2))
	src.AddEdge(5, 2)
	dst := New()
	d, _ := src.DiffSince(0)
	dst.Merge(d)
	sn, se := src.Snapshot()
	dn, de := dst.Snapshot()
	if !reflect.DeepEqual(sn, dn) || !reflect.DeepEqual(se, de) {
		t.Fatalf("merge of full diff differs:\nsrc %v %v\ndst %v %v", sn, se, dn, de)
	}
}

func TestAnyBeforeTransitive(t *testing.T) {
	h := New()
	// 1 -> 2 -> 3, and 4 isolated.
	h.AddEdge(1, 2)
	h.AddEdge(2, 3)
	h.AddNode(node(4))
	if !h.AnyBefore(3, func(id amcast.MsgID) bool { return id == 1 }) {
		t.Fatal("transitive predecessor not found")
	}
	if h.AnyBefore(3, func(id amcast.MsgID) bool { return id == 4 }) {
		t.Fatal("unrelated node reported as predecessor")
	}
	if h.AnyBefore(1, func(id amcast.MsgID) bool { return true }) {
		t.Fatal("source node has no predecessors")
	}
}

func TestAnyBeforeUntilPrunes(t *testing.T) {
	h := New()
	// 1 -> 2 -> 3; stopping at 2 must hide 1.
	h.AddEdge(1, 2)
	h.AddEdge(2, 3)
	found := h.AnyBeforeUntil(3,
		func(id amcast.MsgID) bool { return id == 1 },
		func(id amcast.MsgID) bool { return id == 2 })
	if found {
		t.Fatal("search did not prune at stop node")
	}
	// The stop node itself is still tested against pred.
	found = h.AnyBeforeUntil(3,
		func(id amcast.MsgID) bool { return id == 2 },
		func(id amcast.MsgID) bool { return id == 2 })
	if !found {
		t.Fatal("stop node skipped pred test")
	}
}

func TestPruneBefore(t *testing.T) {
	h := New()
	h.AppendDelivered(node(1, 1))
	h.AppendDelivered(node(2, 2))
	h.AppendDelivered(node(10, 3)) // flush
	h.AppendDelivered(node(3, 1))
	removed := h.PruneBefore(10)
	if removed != 2 {
		t.Fatalf("removed %d nodes, want 2", removed)
	}
	if h.Contains(1) || h.Contains(2) {
		t.Fatal("pruned nodes still present")
	}
	if !h.Contains(10) || !h.Contains(3) {
		t.Fatal("flush or successor pruned")
	}
	if !h.DependsOn(3, 10) {
		t.Fatal("surviving edge lost")
	}
	if h.ContainsMsgTo(2) {
		t.Fatal("msgsTo not decremented for pruned node")
	}
	if h.ContainsMsgTo(1) == false {
		t.Fatal("msgsTo lost for surviving node 3 (dst 1)")
	}
}

func TestPruneBeforeUnknownFlush(t *testing.T) {
	h := New()
	h.AppendDelivered(node(1, 1))
	if got := h.PruneBefore(99); got != 0 {
		t.Fatalf("PruneBefore(unknown) = %d, want 0", got)
	}
}

func TestPruneThenDiffStillMergeable(t *testing.T) {
	// A diff computed across a prune boundary must still merge cleanly at
	// a receiver (pruned entries are dead weight, not corruption).
	src := New()
	src.AppendDelivered(node(1, 1))
	src.AppendDelivered(node(10, 1, 2))
	src.PruneBefore(10)
	src.AppendDelivered(node(2, 2))
	d, _ := src.DiffSince(0)
	dst := New()
	dst.Merge(d)
	if !dst.DependsOn(2, 10) {
		t.Fatal("post-prune dependency lost in diff")
	}
	if err := dst.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAcyclic(t *testing.T) {
	h := New()
	h.AddEdge(1, 2)
	h.AddEdge(2, 3)
	if err := h.CheckAcyclic(); err != nil {
		t.Fatalf("acyclic graph reported cycle: %v", err)
	}
	h.AddEdge(3, 1)
	if err := h.CheckAcyclic(); err == nil {
		t.Fatal("cycle not detected")
	}
}

// TestRandomMergeCommutes checks that merging the same set of deltas in
// different orders produces the same live graph — histories are CRDT-like
// grow-only sets, which is what lets FlexCast merge ancestor histories in
// arrival order.
func TestRandomMergeCommutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var deltas []*amcast.HistDelta
		for i := 0; i < 10; i++ {
			d := &amcast.HistDelta{}
			for j := 0; j < rng.Intn(5); j++ {
				d.Nodes = append(d.Nodes, amcast.HistNode{
					ID:  amcast.MsgID(rng.Intn(20) + 1),
					Dst: []amcast.GroupID{amcast.GroupID(rng.Intn(3) + 1)},
				})
			}
			for j := 0; j < rng.Intn(5); j++ {
				a, b := rng.Intn(20)+1, rng.Intn(20)+1
				if a == b {
					continue
				}
				// Only forward edges: keeps the graph acyclic.
				if a > b {
					a, b = b, a
				}
				d.Edges = append(d.Edges, amcast.HistEdge{From: amcast.MsgID(a), To: amcast.MsgID(b)})
			}
			deltas = append(deltas, d)
		}
		h1, h2 := New(), New()
		for _, d := range deltas {
			h1.Merge(d)
		}
		for i := len(deltas) - 1; i >= 0; i-- {
			h2.Merge(deltas[i])
		}
		n1, e1 := h1.Snapshot()
		n2, e2 := h2.Snapshot()
		// Node destination fill-in is first-writer-wins, but IDs and edges
		// must match exactly.
		if len(n1) != len(n2) || !reflect.DeepEqual(e1, e2) {
			return false
		}
		for i := range n1 {
			if n1[i].ID != n2[i].ID {
				return false
			}
		}
		return h1.CheckAcyclic() == nil && h2.CheckAcyclic() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateAllocations holds the arena to its promise: once the
// slots, the index and the scratch buffers have reached their working
// size, a flush interval of merges, dependency walks, diffs and the prune
// allocates nothing beyond the deltas DiffSince returns.
func TestSteadyStateAllocations(t *testing.T) {
	const perFlush, rounds = 64, 40
	// Round r merges a chain of perFlush fresh messages hanging off the
	// previous round's flush, walks and diffs after each, then prunes.
	deltas := make([][]*amcast.HistDelta, rounds)
	next := amcast.MsgID(1)
	for r := range deltas {
		for i := 0; i < perFlush; i++ {
			next++
			deltas[r] = append(deltas[r], &amcast.HistDelta{
				Nodes: []amcast.HistNode{{ID: next, Dst: []amcast.GroupID{1, 2}}},
				Edges: []amcast.HistEdge{{From: next - 1, To: next}},
			})
		}
	}
	h := New()
	h.AddNode(node(1, 1, 2))
	var cur Cursor
	diffs := 0
	never := func(amcast.MsgID) bool { return false }
	round := func(r int) {
		for _, d := range deltas[r] {
			h.Merge(d)
			id := d.Nodes[0].ID
			if h.AnyBeforeUntil(id, never, never) || h.AnyOpenBefore(id) {
				t.Fatal("walk found a dependency in a chain without one")
			}
			var out *amcast.HistDelta
			if out, cur = h.DiffSince(cur); out != nil {
				diffs++
			}
		}
		if got := h.PruneBefore(deltas[r][perFlush-1].Nodes[0].ID); got != perFlush {
			t.Fatalf("round %d pruned %d nodes, want %d", r, got, perFlush)
		}
	}
	const warm = 8
	for r := 0; r < warm; r++ {
		round(r)
	}
	r := warm
	diffs = 0
	avg := testing.AllocsPerRun(rounds-warm-1, func() { round(r); r++ })
	// DiffSince's result is three allocations: the delta and its two slices.
	if perDiff := avg / perFlush; perDiff > 3 {
		t.Fatalf("%.2f allocations per merge+walk+diff, want the 3 of the returned delta", perDiff)
	}
	if diffs == 0 {
		t.Fatal("no diffs taken")
	}
}
