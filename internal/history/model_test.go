package history

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// refHistory is the nested-map history the arena replaced, kept as the
// reference model the differential tests compare against: adjacency as
// map-of-sets, a log of first-seen nodes and edges compacted after every
// prune with index cursors remapped, and the owner's open/delivered sets.
type refHistory struct {
	nodes      map[amcast.MsgID]Node
	succ, pred map[amcast.MsgID]map[amcast.MsgID]bool
	open, dlvd map[amcast.MsgID]bool
	last       amcast.MsgID
	log        []refEntry
}

type refEntry struct {
	isEdge bool
	a, b   amcast.MsgID
}

func newRef() *refHistory {
	return &refHistory{
		nodes: map[amcast.MsgID]Node{},
		succ:  map[amcast.MsgID]map[amcast.MsgID]bool{}, pred: map[amcast.MsgID]map[amcast.MsgID]bool{},
		open: map[amcast.MsgID]bool{}, dlvd: map[amcast.MsgID]bool{},
	}
}

func (r *refHistory) addNode(n Node) (created, filled bool) {
	old, ok := r.nodes[n.ID]
	if ok && (len(old.Dst) > 0 || len(n.Dst) == 0) {
		return false, false
	}
	r.nodes[n.ID] = n
	r.log = append(r.log, refEntry{a: n.ID})
	return !ok, ok
}

func (r *refHistory) addEdge(from, to amcast.MsgID) (added []Node, isNew bool) {
	if from == to || r.succ[from][to] {
		return nil, false
	}
	for _, id := range []amcast.MsgID{from, to} {
		if _, ok := r.nodes[id]; !ok {
			r.addNode(Node{ID: id})
			added = append(added, Node{ID: id})
		}
		if r.succ[id] == nil {
			r.succ[id], r.pred[id] = map[amcast.MsgID]bool{}, map[amcast.MsgID]bool{}
		}
	}
	r.succ[from][to], r.pred[to][from] = true, true
	r.log = append(r.log, refEntry{isEdge: true, a: from, b: to})
	return added, true
}

func (r *refHistory) appendDelivered(n Node) bool {
	created, _ := r.addNode(n)
	if r.last != 0 {
		r.addEdge(r.last, n.ID)
	}
	r.last = n.ID
	r.dlvd[n.ID] = true
	delete(r.open, n.ID)
	return created
}

func (r *refHistory) merge(d *amcast.HistDelta) (added []Node) {
	for _, hn := range d.Nodes {
		if created, filled := r.addNode(Node{ID: hn.ID, Dst: hn.Dst}); created || filled {
			added = append(added, Node{ID: hn.ID, Dst: hn.Dst})
		}
	}
	for _, e := range d.Edges {
		ph, _ := r.addEdge(e.From, e.To)
		added = append(added, ph...)
	}
	return added
}

func (r *refHistory) diffSince(c int) (*amcast.HistDelta, int) {
	var d *amcast.HistDelta
	for _, le := range r.log[c:] {
		if d == nil {
			d = &amcast.HistDelta{}
		}
		if le.isEdge {
			d.Edges = append(d.Edges, amcast.HistEdge{From: le.a, To: le.b})
		} else {
			d.Nodes = append(d.Nodes, amcast.HistNode{ID: le.a, Dst: r.nodes[le.a].Dst})
		}
	}
	return d, len(r.log)
}

// before returns the nodes with a path to m — m itself only if it lies on
// a cycle — not exploring past nodes for which stop holds.
func (r *refHistory) before(m amcast.MsgID, stop func(amcast.MsgID) bool) map[amcast.MsgID]bool {
	seen := map[amcast.MsgID]bool{}
	var walk func(id amcast.MsgID)
	walk = func(id amcast.MsgID) {
		for p := range r.pred[id] {
			if !seen[p] {
				seen[p] = true
				if stop == nil || !stop(p) {
					walk(p)
				}
			}
		}
	}
	walk(m)
	return seen
}

func (r *refHistory) anyBeforeUntil(m amcast.MsgID, pred, stop func(amcast.MsgID) bool) bool {
	for id := range r.before(m, stop) {
		if id != m && pred(id) {
			return true
		}
	}
	return false
}

// pruneBefore removes m's ancestors, compacts the log and remaps the
// index cursors to the surviving entries, as the engine used to.
func (r *refHistory) pruneBefore(m amcast.MsgID, cursors []int) int {
	if _, ok := r.nodes[m]; !ok {
		return 0
	}
	doomed := r.before(m, nil)
	delete(doomed, m)
	for id := range doomed {
		for s := range r.succ[id] {
			delete(r.pred[s], id)
		}
		for p := range r.pred[id] {
			delete(r.succ[p], id)
		}
		delete(r.nodes, id)
		delete(r.succ, id)
		delete(r.pred, id)
		delete(r.open, id)
		delete(r.dlvd, id)
	}
	live := r.log[:0:0]
	remap := make([]int, len(r.log)+1)
	for i, le := range r.log {
		remap[i] = len(live)
		if !doomed[le.a] && !(le.isEdge && doomed[le.b]) {
			live = append(live, le)
		}
	}
	remap[len(r.log)] = len(live)
	r.log = live
	for i := range cursors {
		cursors[i] = remap[cursors[i]]
	}
	return len(doomed)
}

func (r *refHistory) snapshot() ([]Node, []amcast.HistEdge) {
	ns := make([]Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	var es []amcast.HistEdge
	for from, s := range r.succ {
		for to := range s {
			es = append(es, amcast.HistEdge{From: from, To: to})
		}
	}
	sort.Slice(es, func(i, j int) bool {
		return es[i].From < es[j].From || es[i].From == es[j].From && es[i].To < es[j].To
	})
	return ns, es
}

func (r *refHistory) acyclic() bool {
	for id := range r.nodes {
		if r.before(id, nil)[id] {
			return false
		}
	}
	return true
}

// differ drives an arena history and the reference model with one op
// sequence and fails on the first observable difference.
type differ struct {
	t    testing.TB
	h    *History
	ref  *refHistory
	cur  [3]Cursor // arena cursors: sequence numbers
	rcur []int     // model cursors: log indexes
	step int
}

// Ops are four bytes each: opcode, then arguments a, b, c. Ids come from
// a small range so that ops collide; nIDs bounds it.
const opBytes = 4

func opID(x byte, nIDs int) amcast.MsgID { return amcast.MsgID(1 + int(x)%nIDs) }

func opDst(x byte) []amcast.GroupID {
	var dst []amcast.GroupID
	for g := 1; g <= 3; g++ {
		if x&(1<<(g-1)) != 0 {
			dst = append(dst, amcast.GroupID(g))
		}
	}
	return dst
}

func inMask(mask byte) func(amcast.MsgID) bool {
	return func(id amcast.MsgID) bool { return mask&(1<<(id%8)) != 0 }
}

func runOps(t testing.TB, ops []byte, nIDs int) {
	d := &differ{t: t, h: New(), ref: newRef(), rcur: make([]int, 3)}
	for ; len(ops) >= opBytes; ops = ops[opBytes:] {
		d.apply(ops[0], ops[1], ops[2], ops[3], nIDs)
		d.compare()
		d.step++
	}
}

func (d *differ) apply(op, a, b, c byte, nIDs int) {
	t, h, ref := d.t, d.h, d.ref
	ida, idb, idc := opID(a, nIDs), opID(b, nIDs), opID(c, nIDs)
	switch op % 10 {
	case 0:
		n := Node{ID: ida, Dst: opDst(c)}
		want, _ := ref.addNode(n)
		if got := h.AddNode(n); got != want {
			t.Fatalf("step %d: AddNode(%v) = %v, model %v", d.step, n, got, want)
		}
	case 1:
		_, want := ref.addEdge(ida, idb)
		if got := h.AddEdge(ida, idb); got != want {
			t.Fatalf("step %d: AddEdge(%s,%s) = %v, model %v", d.step, ida, idb, got, want)
		}
	case 2:
		n := Node{ID: ida, Dst: opDst(c)}
		want := ref.appendDelivered(n)
		if got := h.AppendDelivered(n); got != want {
			t.Fatalf("step %d: AppendDelivered(%v) = %v, model %v", d.step, n, got, want)
		}
	case 3:
		delta := &amcast.HistDelta{
			Nodes: []amcast.HistNode{{ID: ida, Dst: opDst(c)}, {ID: idb, Dst: opDst(c >> 3)}},
			Edges: []amcast.HistEdge{{From: ida, To: idb}, {From: idb, To: idc}},
		}
		want := ref.merge(delta)
		if got := h.Merge(delta); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Merge reported %v, model %v", d.step, got, want)
		}
	case 4:
		i := int(a) % len(d.cur)
		got, next := h.DiffSince(d.cur[i])
		want, rnext := ref.diffSince(d.rcur[i])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: DiffSince(cursor %d) = %+v, model %+v", d.step, i, got, want)
		}
		d.cur[i], d.rcur[i] = next, rnext
	case 5:
		want := ref.pruneBefore(ida, d.rcur)
		if got := h.PruneBefore(ida); got != want {
			t.Fatalf("step %d: PruneBefore(%s) = %d, model %d", d.step, ida, got, want)
		}
	case 6:
		pred, stop := inMask(b), inMask(c)
		if c&1 != 0 {
			stop = nil
		}
		want := ref.anyBeforeUntil(ida, pred, stop)
		if got := h.AnyBeforeUntil(ida, pred, stop); got != want {
			t.Fatalf("step %d: AnyBeforeUntil(%s, %08b, %08b) = %v, model %v", d.step, ida, b, c, got, want)
		}
	case 7:
		// Continue on a decoded copy and wreck the original: the copies
		// must share nothing the comparison can see.
		old := h
		d.h = Decode(codec.NewReader(h.AppendBinary(nil)))
		old.AppendDelivered(Node{ID: 1000, Dst: opDst(7)})
		old.Merge(&amcast.HistDelta{Edges: []amcast.HistEdge{{From: ida, To: 1001}, {From: 1001, To: idb}}})
		old.PruneBefore(1000)
	case 8:
		data := h.AppendBinary(nil)
		r := codec.NewReader(data)
		d.h = Decode(r)
		if err := r.Close(); err != nil {
			t.Fatalf("step %d: decode: %v", d.step, err)
		}
		if again := d.h.AppendBinary(nil); !bytes.Equal(data, again) {
			t.Fatalf("step %d: re-encoded history differs from its encoding", d.step)
		}
	case 9:
		if _, ok := ref.nodes[ida]; ok {
			if c&1 != 0 {
				ref.open[ida] = true
			} else {
				ref.dlvd[ida] = true
				delete(ref.open, ida)
			}
		}
		if c&1 != 0 {
			h.MarkOpen(ida)
		} else {
			h.MarkDelivered(ida)
		}
		want := ref.anyBeforeUntil(idb, func(id amcast.MsgID) bool { return ref.open[id] }, func(id amcast.MsgID) bool { return ref.dlvd[id] })
		if got := h.AnyOpenBefore(idb); got != want {
			t.Fatalf("step %d: AnyOpenBefore(%s) = %v, model %v", d.step, idb, got, want)
		}
	}
}

func (d *differ) compare() {
	t, h, ref := d.t, d.h, d.ref
	gn, ge := h.Snapshot()
	wn, we := ref.snapshot()
	if len(gn)+len(wn) > 0 && !reflect.DeepEqual(gn, wn) {
		t.Fatalf("step %d: nodes %v, model %v", d.step, gn, wn)
	}
	if len(ge)+len(we) > 0 && !reflect.DeepEqual(ge, we) {
		t.Fatalf("step %d: edges %v, model %v", d.step, ge, we)
	}
	if h.Len() != len(wn) || h.EdgeCount() != len(we) || h.LogLen() != len(ref.log) || h.LastDelivered() != ref.last {
		t.Fatalf("step %d: len/edges/log/last = %d/%d/%d/%s, model %d/%d/%d/%s", d.step,
			h.Len(), h.EdgeCount(), h.LogLen(), h.LastDelivered(), len(wn), len(we), len(ref.log), ref.last)
	}
	for g := amcast.GroupID(1); g <= 3; g++ {
		want := false
		for _, n := range wn {
			want = want || slices.Contains(n.Dst, g)
		}
		if got := h.ContainsMsgTo(g); got != want {
			t.Fatalf("step %d: ContainsMsgTo(%d) = %v, model %v", d.step, g, got, want)
		}
	}
	if got, want := h.CheckAcyclic() == nil, ref.acyclic(); got != want {
		t.Fatalf("step %d: acyclic = %v, model %v", d.step, got, want)
	}
}

// opSeeds are the seeded random op sequences the differential test runs
// and the fuzzer starts from.
func opSeeds() [][]byte {
	var seeds [][]byte
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, opBytes*(20+rng.Intn(200)))
		rng.Read(ops)
		seeds = append(seeds, ops)
	}
	return seeds
}

// TestDifferentialVsModel drives the arena and the map-based model with
// seeded random op sequences — AddNode and placeholder fill-in, AddEdge,
// AppendDelivered, Merge, DiffSince on three cursors, PruneBefore with the
// model's compaction and cursor remap, AnyBeforeUntil, the open/delivered
// flags, copy isolation and the codec round trip — asserting identical results and
// identical live state after every op.
func TestDifferentialVsModel(t *testing.T) {
	for _, ops := range opSeeds() {
		runOps(t, ops, 12)
	}
}

func FuzzHistoryOps(f *testing.F) {
	for _, ops := range opSeeds()[:16] {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > opBytes*512 {
			ops = ops[:opBytes*512]
		}
		runOps(t, ops, 12)
	})
}

// TestExhaustiveSmallScope runs every order of a fixed set of ops over
// five node ids — small-scope enumeration in place of sampling: deliveries
// that chain, a merge that leaves a node without destinations and one
// that fills them in, a prune in the middle of the chain, diffs on two
// cursors, and in some orders a cycle.
func TestExhaustiveSmallScope(t *testing.T) {
	ops := [][opBytes]byte{
		{2, 0, 0, 0b011},    // AppendDelivered(1 → {1,2})
		{2, 1, 0, 0b001},    // AppendDelivered(2 → {1})
		{3, 2, 3, 0b101},    // Merge(nodes 3 → {1,3} and 4 without destinations, edges 3→4, 4→1)
		{3, 3, 4, 0b110010}, // Merge(nodes 4 → {2} and 5 → {2,3}, edges 4→5, 5→1)
		{1, 0, 2, 0},        // AddEdge(1, 3): closes the cycle 1→3→4→5→1 in some orders
		{5, 1, 0, 0},        // PruneBefore(2)
		{4, 0, 0, 0},        // DiffSince(cursor 0)
		{4, 1, 0, 0},        // DiffSince(cursor 1)
	}
	perm := make([]int, len(ops))
	for i := range perm {
		perm[i] = i
	}
	var seq []byte
	var run func(k int)
	run = func(k int) {
		if k == len(perm) {
			seq = seq[:0]
			for _, i := range perm {
				seq = append(seq, ops[i][:]...)
			}
			// End every order with the observers the order does not include.
			seq = append(seq, 4, 2, 0, 0, 9, 0, 4, 1, 9, 1, 2, 0, 6, 4, 0b111110, 0b100, 8, 0, 0, 0, 7, 0, 1, 0, 4, 2, 0, 0)
			runOps(t, seq, 5)
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			run(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	run(0)
}
