package history

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"flexcast/amcast"
	"flexcast/internal/prototest"
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

// TestCloseWalkedStopsLaterWalks pins the closed rule: after a walk from
// m found nothing open and the owner closed it, every node that walk
// visited is closed and a later walk from another message stops there as
// at a delivered node. The test then breaks the protocol invariant on
// purpose — an ancestor of the closed nodes turns open — to show that the
// pruned walk no longer looks behind them while the full walk does.
func TestCloseWalkedStopsLaterWalks(t *testing.T) {
	h := New()
	// 1 → 2 → 3 → 10 and 3 → 11; 0 → 1 is added later.
	h.AddEdge(1, 2)
	h.AddEdge(2, 3)
	h.AddEdge(3, 10)
	h.AddEdge(3, 11)
	if h.AnyOpenBefore(10) {
		t.Fatal("open dependency found in a history without one")
	}
	h.CloseWalked(10)
	for _, id := range []amcast.MsgID{1, 2, 3} {
		if !h.Closed(id) {
			t.Fatalf("ancestor %s of the delivered message not closed", id)
		}
	}
	if h.Closed(10) || h.Closed(11) {
		t.Fatal("a node the walk did not visit was closed")
	}
	h.AddEdge(0, 1)
	h.MarkOpen(0)
	isOpen := func(id amcast.MsgID) bool { return id == 0 }
	if !h.AnyBeforeUntil(11, isOpen, nil) {
		t.Fatal("full walk misses the open ancestor")
	}
	if h.AnyOpenBefore(11) {
		t.Fatal("walk did not stop at the closed node 3")
	}
	// A closed node that is itself open is still found.
	h.MarkOpen(3)
	if !h.AnyOpenBefore(11) {
		t.Fatal("an open closed node was skipped")
	}
}

// TestCloseWalkedOnlyAfterItsOwnWalk: closing applies the last walk only
// when it was AnyOpenBefore of the same message, found nothing, and the
// graph has not changed since.
func TestCloseWalkedOnlyAfterItsOwnWalk(t *testing.T) {
	build := func() *History {
		h := New()
		h.AppendDelivered(node(1, 1, 2))
		h.AddEdge(5, 1) // placeholder 5 behind the delivered node
		h.AddEdge(1, 2)
		h.AddEdge(2, 3)
		h.AddNode(node(4, 1, 2))
		h.AddEdge(4, 3)
		return h
	}
	never := func(amcast.MsgID) bool { return false }
	cases := []struct {
		name string
		walk func(h *History)
	}{
		{"other message", func(h *History) { h.AnyOpenBefore(2) }},
		{"found open", func(h *History) { h.MarkOpen(4); h.AnyOpenBefore(3) }},
		{"other walk", func(h *History) { h.AnyOpenBefore(3); h.AnyBeforeUntil(3, never, nil) }},
		{"prune", func(h *History) { h.AnyOpenBefore(3); h.PruneBefore(1) }},
		{"merge", func(h *History) { h.AnyOpenBefore(3); h.AddEdge(6, 2) }},
	}
	for _, c := range cases {
		h := build()
		c.walk(h)
		h.CloseWalked(3)
		for _, id := range []amcast.MsgID{1, 2, 4, 5} {
			if h.Closed(id) {
				t.Fatalf("%s: node %s closed", c.name, id)
			}
		}
	}
	h := build()
	h.AnyOpenBefore(3)
	h.CloseWalked(3)
	// The walk stopped at delivered 1, so placeholder 5 behind it was not
	// visited; 1 itself was.
	for id, want := range map[amcast.MsgID]bool{1: true, 2: true, 4: true, 5: false, 3: false} {
		if h.Closed(id) != want {
			t.Fatalf("Closed(%s) = %v, want %v", id, !want, want)
		}
	}
}

// TestClosedBitIsNotEncoded: closing changes no byte of the image, and a
// decoded history starts with no node closed.
func TestClosedBitIsNotEncoded(t *testing.T) {
	h := New()
	h.AppendDelivered(node(1, 1, 2))
	h.Merge(&amcast.HistDelta{
		Nodes: []amcast.HistNode{{ID: 2, Dst: []amcast.GroupID{2, 3}}, {ID: 3, Dst: []amcast.GroupID{1, 3}}},
		Edges: []amcast.HistEdge{{From: 2, To: 3}, {From: 1, To: 3}},
	})
	before := h.AppendBinary(nil)
	if h.AnyOpenBefore(3) {
		t.Fatal("unexpected open dependency")
	}
	h.CloseWalked(3)
	if !h.Closed(2) {
		t.Fatal("nothing closed")
	}
	if after := h.AppendBinary(nil); !bytes.Equal(before, after) {
		t.Fatal("closing changed the encoded image")
	}
	dec := roundTrip(t, h)
	if dec.Closed(1) || dec.Closed(2) {
		t.Fatal("decoded history has closed nodes")
	}
}

// TestAllocBudgetMerge: merging a diff whose nodes and edges the history
// already holds allocates nothing, and a node costs no allocation once
// its destination set has been seen — the arena keeps nothing of the
// delta, so a decoded frame is garbage as soon as the merge returns.
func TestAllocBudgetMerge(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	delta := func(first amcast.MsgID) *amcast.HistDelta {
		d := &amcast.HistDelta{}
		for i := amcast.MsgID(0); i < 20; i++ {
			id := first + i
			d.Nodes = append(d.Nodes, amcast.HistNode{ID: id, Dst: []amcast.GroupID{1, amcast.GroupID(2 + i%3)}})
			if i > 0 {
				d.Edges = append(d.Edges, amcast.HistEdge{From: id - 1, To: id})
			}
		}
		return d
	}
	h := New()
	seen := delta(1)
	h.Merge(seen)
	if n := testing.AllocsPerRun(100, func() { h.Merge(seen) }); n != 0 {
		t.Fatalf("merging an already-seen delta allocates %v objects", n)
	}
	// Fresh nodes with known destination sets: the slots, the index and the
	// log grow to a working size and stay there across prunes.
	next := amcast.MsgID(1000)
	round := func() {
		d := delta(next)
		d.Edges = append(d.Edges, amcast.HistEdge{From: next - 1000 + 20 - 1, To: next})
		h.Merge(d)
		h.PruneBefore(next + 19)
		next += 1000
	}
	for i := 0; i < 10; i++ {
		round()
	}
	deltas := make([]*amcast.HistDelta, 0, 101)
	for i := 0; i <= 100; i++ {
		deltas = append(deltas, delta(next+amcast.MsgID(i)*1000))
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		h.Merge(deltas[i])
		h.PruneBefore(deltas[i].Nodes[19].ID)
		i++
	}); n != 0 {
		t.Fatalf("merging fresh nodes with known destination sets allocates %v objects per delta", n)
	}
}

// TestAllocBudgetIntern: a destination set is copied once, on
// first sight, and shared by every later node with the same set; a set
// the bitmask key cannot represent is copied as it stands.
func TestAllocBudgetIntern(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	var sets [][]amcast.GroupID
	for a := amcast.GroupID(0); a < 64; a++ {
		for b := a + 1; b < 64; b += 3 {
			sets = append(sets, []amcast.GroupID{a, b})
		}
	}
	h := New()
	i := 0
	perSet := testing.AllocsPerRun(len(sets)-1, func() { h.intern(sets[i%len(sets)]); i++ })
	// Growing the set list and its table adds a logarithmic handful.
	if perSet > 1.05 {
		t.Fatalf("interning a new set allocates %.3f objects, want 1 (+ amortised growth)", perSet)
	}
	if n := testing.AllocsPerRun(100, func() { h.intern(sets[7]) }); n != 0 {
		t.Fatalf("interning a known set allocates %v objects", n)
	}
	a, b := h.intern([]amcast.GroupID{3, 9}), h.intern([]amcast.GroupID{3, 9})
	if &a[0] != &b[0] {
		t.Fatal("equal sets not shared")
	}
	for _, odd := range [][]amcast.GroupID{{9, 3}, {3, 3}, {3, 64}, {-1, 2}} {
		got := h.intern(odd)
		if !reflect.DeepEqual(got, odd) || &got[0] == &odd[0] {
			t.Fatalf("intern(%v) = %v, want a copy as it stands", odd, got)
		}
	}
}
