// Package history implements FlexCast's history data structure (paper
// §4.1, Strategy a, and Algorithm 1): a DAG whose vertexes are messages
// (id + destination set) and whose edges record relative delivery order.
// Every group maintains one history; it grows by local deliveries and by
// merging the history diffs received from ancestor groups, and it shrinks
// through flush-based garbage collection (§4.3).
//
// Nodes live in a dense arena with no Go map in it. A slot's vertex holds
// what only encoding and diffs read — id, destinations, successors —
// while what the hot paths test lives in per-slot arrays beside it: the
// flags (live, open, delivered, closed, has-destinations), the walk's
// epoch mark and the predecessor list. Adjacency is small inline slot
// lists (a message's in- and out-degree is bounded by its destination
// count), freed slots go on a free list, and the MsgID → slot index is an
// open-addressing table with backward-shift deletion. Destination sets
// are interned in a history-owned table keyed by the set's group bitmask,
// so a node whose set was seen before costs no allocation and the arena
// never keeps a decoded frame's memory alive. A duplicate node in a
// merged diff therefore costs one index probe, a duplicate edge two
// probes and a look at one predecessor list. Graph walks mark visited
// slots with an epoch stamp and keep their work list in a reused buffer,
// so the steady-state operations allocate nothing. Condition 2's walk
// (AnyOpenBefore) stops at delivered nodes and at closed ones — nodes the
// owner closed as ancestors of a message it delivered (CloseWalked) — so
// it stays near the open frontier instead of re-walking settled history.
//
// The structure also maintains an append-only log of first-seen nodes and
// edges, each entry stamped with a sequence number that is never reused.
// Per-descendant diff tracking (diff-hst in Algorithm 3) is a sequence
// number into this log, which makes computing "the part of my history I
// have not yet sent to h" O(new entries) instead of O(|history|), and
// lets garbage collection drop dead entries without touching any cursor.
package history

import (
	"cmp"
	"fmt"
	"slices"

	"flexcast/amcast"
)

// Node is one history vertex: a message id and its destinations.
type Node struct {
	ID  amcast.MsgID
	Dst []amcast.GroupID
}

// Node flags. The engine owning the history records per node whether the
// message is an open dependency (addressed to the group, not delivered
// yet) or was delivered locally, so that AnyOpenBefore tests a bit
// instead of calling back into the engine's sets. Closed and
// has-destinations are derived: the codec writes neither.
const (
	flagLive uint8 = 1 << iota
	flagOpen
	flagDelivered
	// flagClosed marks an ancestor of a message this group delivered
	// (CloseWalked): condition 2's walk stops there as at a delivered node.
	flagClosed
	// flagHasDst marks a node whose destinations are known, i.e. not a
	// placeholder.
	flagHasDst

	// persistedFlags are the flags AppendBinary writes.
	persistedFlags = flagLive | flagOpen | flagDelivered
)

const (
	// inlineDeg is the adjacency capacity held inside the node; higher
	// degrees (flush messages, addressed to every group) spill to a slice.
	inlineDeg = 4
	noSlot    = ^uint32(0)
)

// adj is a list of slots: the first inlineDeg inline, the rest in more.
type adj struct {
	n    uint32
	inl  [inlineDeg]uint32
	more []uint32
}

func (a *adj) at(i uint32) uint32 {
	if i < inlineDeg {
		return a.inl[i]
	}
	return a.more[i-inlineDeg]
}

func (a *adj) set(i, s uint32) {
	if i < inlineDeg {
		a.inl[i] = s
	} else {
		a.more[i-inlineDeg] = s
	}
}

func (a *adj) add(s uint32) {
	if a.n < inlineDeg {
		a.inl[a.n] = s
	} else {
		a.more = append(a.more, s)
	}
	a.n++
}

func (a *adj) has(s uint32) bool {
	for i := uint32(0); i < a.n; i++ {
		if a.at(i) == s {
			return true
		}
	}
	return false
}

// truncate keeps the first k slots; the spill slice keeps its capacity
// for the slot's next tenant.
func (a *adj) truncate(k uint32) {
	a.n = k
	if k > inlineDeg {
		a.more = a.more[:k-inlineDeg]
	} else {
		a.more = a.more[:0]
	}
}

// vertex is the cold part of a slot; the hot part is History's per-slot
// arrays.
type vertex struct {
	id   amcast.MsgID
	dst  []amcast.GroupID
	succ adj
}

// logEntry is one first-seen node (b == noSlot) or edge a → b. Entries of
// pruned nodes are removed by the prune itself, so a logged slot is always
// live.
type logEntry struct {
	seq  uint64
	a, b uint32
}

type groupCount struct {
	g amcast.GroupID
	n int
}

// History is the history H = (M, D, lastDlvd) of one group. The zero value
// is an empty history, as is New's.
type History struct {
	nodes []vertex
	// flags, mark (the epoch of the last walk that visited the slot) and
	// preds are indexed by slot like nodes.
	flags []uint8
	mark  []uint32
	preds []adj
	index table // MsgID → slot
	free  []uint32
	last  amcast.MsgID // lastDlvd; 0 means ⊥
	// msgsTo counts live nodes addressed to each group, backing the
	// hst.containsMsgTo(d) test of Algorithm 3 (send-notifs). A deployment
	// has a dozen groups: a linear scan beats a map.
	msgsTo []groupCount
	// log records first-seen nodes and edges in insertion order; nextSeq
	// is the sequence number the next entry gets.
	log     []logEntry
	nextSeq uint64
	// sets interns destination sets: group bitmask → index in setList.
	sets    table
	setList [][]amcast.GroupID

	epoch uint32
	// work is the walk list / prune set, reused. After AnyOpenBefore(walkFrom)
	// found nothing open, closable is set and work lists every slot that
	// walk visited, for CloseWalked.
	work     []uint32
	walkFrom amcast.MsgID
	closable bool
	added    []Node // Merge's result, reused
}

// New returns an empty history.
func New() *History { return &History{} }

// Len returns the number of live nodes.
func (h *History) Len() int { return h.index.n }

// EdgeCount returns the number of live edges.
func (h *History) EdgeCount() int {
	n := 0
	for i := range h.preds {
		n += int(h.preds[i].n)
	}
	return n
}

// slot returns id's slot and whether id is a live node.
func (h *History) slot(id amcast.MsgID) (uint32, bool) { return h.index.get(uint64(id)) }

// Contains reports whether the message id is a live node.
func (h *History) Contains(id amcast.MsgID) bool {
	_, ok := h.slot(id)
	return ok
}

// NodeOf returns the node for id, and whether it exists.
func (h *History) NodeOf(id amcast.MsgID) (Node, bool) {
	s, ok := h.slot(id)
	if !ok {
		return Node{}, false
	}
	return Node{ID: id, Dst: h.nodes[s].dst}, true
}

// Closed reports whether id is a live node CloseWalked closed.
func (h *History) Closed(id amcast.MsgID) bool {
	s, ok := h.slot(id)
	return ok && h.flags[s]&flagClosed != 0
}

// LastDelivered returns the id of the last message delivered at this
// group, or 0 if none.
func (h *History) LastDelivered() amcast.MsgID { return h.last }

// ContainsMsgTo reports whether the history holds any live message
// addressed to g (hst.containsMsgTo in Algorithm 3 line 38).
func (h *History) ContainsMsgTo(g amcast.GroupID) bool {
	for i := range h.msgsTo {
		if h.msgsTo[i].g == g {
			return h.msgsTo[i].n > 0
		}
	}
	return false
}

func (h *History) countDst(dst []amcast.GroupID, delta int) {
next:
	for _, g := range dst {
		for i := range h.msgsTo {
			if h.msgsTo[i].g == g {
				h.msgsTo[i].n += delta
				continue next
			}
		}
		h.msgsTo = append(h.msgsTo, groupCount{g: g, n: delta})
	}
}

// intern returns the history's own copy of a destination set, nil for an
// empty one. A strictly ascending set of groups below 64 — every set the
// engines build (amcast.NormalizeDst) in a deployment of fewer than 64
// groups — is keyed by its group bitmask and shared by every node with
// that set, so it is allocated once per distinct set; any other set is
// copied as it stands. Interned sets are never written.
func (h *History) intern(dst []amcast.GroupID) []amcast.GroupID {
	if len(dst) == 0 {
		return nil
	}
	var key uint64
	for i, g := range dst {
		if uint32(g) >= 64 || i > 0 && g <= dst[i-1] {
			return slices.Clone(dst)
		}
		key |= 1 << uint32(g)
	}
	if i, ok := h.sets.get(key); ok {
		return h.setList[i]
	}
	set := slices.Clone(dst)
	h.sets.put(key, uint32(len(h.setList)))
	h.setList = append(h.setList, set)
	return set
}

// hasDst is the flag a node with destination set dst carries.
func hasDst(dst []amcast.GroupID) uint8 {
	if len(dst) > 0 {
		return flagHasDst
	}
	return 0
}

// alloc takes a slot for a new live node and logs it.
func (h *History) alloc(id amcast.MsgID, dst []amcast.GroupID) uint32 {
	var s uint32
	if k := len(h.free); k > 0 {
		s = h.free[k-1]
		h.free = h.free[:k-1]
	} else {
		s = uint32(len(h.nodes))
		h.nodes = append(h.nodes, vertex{})
		h.flags = append(h.flags, 0)
		h.mark = append(h.mark, 0)
		h.preds = append(h.preds, adj{})
	}
	dst = h.intern(dst)
	h.nodes[s].id, h.nodes[s].dst = id, dst
	h.flags[s] = flagLive | hasDst(dst)
	h.index.put(uint64(id), s)
	h.countDst(dst, 1)
	h.appendLog(s, noSlot)
	return s
}

// appendLog logs a new node, a filled-in placeholder or a new edge — every
// change to the graph but a prune.
func (h *History) appendLog(a, b uint32) {
	h.log = append(h.log, logEntry{seq: h.nextSeq, a: a, b: b})
	h.nextSeq++
	h.closable = false
}

// addNode inserts n or fills in a placeholder's destinations; it reports
// the slot, whether the node was created, and whether a placeholder was
// filled in.
func (h *History) addNode(n Node) (s uint32, created, filled bool) {
	s, ok := h.slot(n.ID)
	if !ok {
		return h.alloc(n.ID, n.Dst), true, false
	}
	if h.flags[s]&flagHasDst == 0 && len(n.Dst) > 0 {
		dst := h.intern(n.Dst)
		h.nodes[s].dst = dst
		h.flags[s] |= flagHasDst
		h.countDst(dst, 1)
		// Re-log the now-complete node so descendants whose diff cursor
		// already passed the placeholder entry still learn the
		// destinations.
		h.appendLog(s, noSlot)
		return s, false, true
	}
	return s, false, false
}

// AddNode inserts a node if it is not already present, returning true when
// the node is new. If the node exists as a placeholder (empty destination
// set, materialized by an edge that referenced it), the destinations are
// filled in and the node is NOT reported as new.
func (h *History) AddNode(n Node) bool {
	_, created, _ := h.addNode(n)
	return created
}

// addEdge is AddEdge that also reports which endpoints it had to
// materialize as placeholders.
func (h *History) addEdge(from, to amcast.MsgID) (added, newFrom, newTo bool) {
	if from == to {
		return false, false, false
	}
	fs, fok := h.slot(from)
	ts, tok := h.slot(to)
	if fok && tok && h.preds[ts].has(fs) {
		return false, false, false
	}
	if !fok {
		fs = h.alloc(from, nil)
	}
	if !tok {
		ts = h.alloc(to, nil)
	}
	h.nodes[fs].succ.add(ts)
	h.preds[ts].add(fs)
	h.appendLog(fs, ts)
	return true, !fok, !tok
}

// AddEdge inserts a dependency edge (from ordered before to), returning
// true when the edge is new. Unknown endpoints are materialized as
// placeholder nodes so that reachability through pruned or not-yet-known
// messages is preserved.
func (h *History) AddEdge(from, to amcast.MsgID) bool {
	added, _, _ := h.addEdge(from, to)
	return added
}

// AppendDelivered records a local delivery (hst-add in Algorithm 3): the
// node is inserted, ordered after the previous local delivery, flagged
// delivered and becomes lastDlvd. Returns whether the message was unknown
// to the history.
func (h *History) AppendDelivered(n Node) bool {
	s, created, _ := h.addNode(n)
	if h.last != 0 {
		h.addEdge(h.last, n.ID)
	}
	h.last = n.ID
	h.setDelivered(s)
	return created
}

func (h *History) setDelivered(s uint32) { h.flags[s] = h.flags[s]&^flagOpen | flagDelivered }

// MarkOpen flags a live node as an open dependency of the owning group:
// addressed to it and not delivered yet.
func (h *History) MarkOpen(id amcast.MsgID) {
	if s, ok := h.slot(id); ok {
		h.flags[s] |= flagOpen
	}
}

// MarkDelivered flags a live node as delivered by the owning group, for
// a message whose node was pruned after its delivery and has re-entered
// the history through a late diff.
func (h *History) MarkDelivered(id amcast.MsgID) {
	if s, ok := h.slot(id); ok {
		h.setDelivered(s)
	}
}

// Merge integrates a received history diff (update-hst in Algorithm 3)
// and returns the nodes that were new to this history — including
// placeholder nodes (materialized earlier by an edge) whose destinations
// this diff fills in: the caller maintains its open-dependency set from
// the returned nodes, and a fill-in is the first time the destinations
// are known, so omitting it would leave a hole in dependency tracking.
// The returned slice is valid until the next Merge; its destination sets
// are the history's own, and the history keeps nothing of d.
func (h *History) Merge(d *amcast.HistDelta) []Node {
	if d == nil {
		return nil
	}
	added := h.added[:0]
	for _, hn := range d.Nodes {
		if s, created, filled := h.addNode(Node{ID: hn.ID, Dst: hn.Dst}); created || filled {
			added = append(added, Node{ID: hn.ID, Dst: h.nodes[s].dst})
		}
	}
	for _, e := range d.Edges {
		// Placeholder endpoints are reported too, so the engine can track
		// them if they later gain destinations.
		_, newFrom, newTo := h.addEdge(e.From, e.To)
		if newFrom {
			added = append(added, Node{ID: e.From})
		}
		if newTo {
			added = append(added, Node{ID: e.To})
		}
	}
	h.added = added
	return added
}

// Cursor is a per-descendant diff position: the sequence number of the
// first log entry not sent yet. A zero Cursor means "nothing sent yet".
type Cursor uint64

// DiffSince returns the portion of the history logged at or after the
// cursor as a wire delta, plus the advanced cursor (diff-hst in
// Algorithm 3). Entries pruned by garbage collection are gone from the
// log: they recorded dependencies that are fully resolved system-wide
// (everything before a delivered flush), so descendants no longer need
// them — this is what keeps FlexCast's history piggybacking bounded
// (§4.3).
func (h *History) DiffSince(c Cursor) (*amcast.HistDelta, Cursor) {
	from, nNodes := len(h.log), 0
	for from > 0 && h.log[from-1].seq >= uint64(c) {
		from--
		if h.log[from].b == noSlot {
			nNodes++
		}
	}
	if from == len(h.log) {
		return nil, Cursor(h.nextSeq)
	}
	d := &amcast.HistDelta{}
	if nNodes > 0 {
		d.Nodes = make([]amcast.HistNode, 0, nNodes)
	}
	if nEdges := len(h.log) - from - nNodes; nEdges > 0 {
		d.Edges = make([]amcast.HistEdge, 0, nEdges)
	}
	for _, le := range h.log[from:] {
		if le.b == noSlot {
			nd := &h.nodes[le.a]
			d.Nodes = append(d.Nodes, amcast.HistNode{ID: nd.id, Dst: nd.dst})
		} else {
			d.Edges = append(d.Edges, amcast.HistEdge{From: h.nodes[le.a].id, To: h.nodes[le.b].id})
		}
	}
	return d, Cursor(h.nextSeq)
}

// LogLen reports the log size (tests and memory accounting).
func (h *History) LogLen() int { return len(h.log) }

// nextEpoch starts a walk: no node carries the returned stamp yet.
func (h *History) nextEpoch() uint32 {
	h.epoch++
	if h.epoch == 0 {
		clear(h.mark)
		h.epoch = 1
	}
	return h.epoch
}

// pushPreds appends the predecessors of slot s that do not carry the
// epoch stamp yet, stamping them.
func (h *History) pushPreds(list []uint32, s, epoch uint32) []uint32 {
	p := &h.preds[s]
	for i := uint32(0); i < p.n; i++ {
		if q := p.at(i); h.mark[q] != epoch {
			h.mark[q] = epoch
			list = append(list, q)
		}
	}
	return list
}

// walkBack visits every node with a (transitive) path to m, m excluded,
// breadth first, until visit reports found; predecessors of a node for
// which visit reports stop are not explored. It leaves the slots it
// reached in h.work — all of them visited when it found nothing. visit
// must not call back into h.
func (h *History) walkBack(m amcast.MsgID, visit func(s uint32) (found, stop bool)) bool {
	list, found := h.work[:0], false
	if s, ok := h.slot(m); ok {
		epoch := h.nextEpoch()
		h.mark[s] = epoch
		list = h.pushPreds(list, s, epoch)
		for i := 0; i < len(list); i++ {
			f, stop := visit(list[i])
			if f {
				found = true
				break
			}
			if !stop {
				list = h.pushPreds(list, list[i], epoch)
			}
		}
	}
	h.work, h.walkFrom, h.closable = list, m, false
	return found
}

// AnyBefore walks every node with a (transitive) path to m, excluding m
// itself, and reports whether pred returns true for any of them.
func (h *History) AnyBefore(m amcast.MsgID, pred func(amcast.MsgID) bool) bool {
	return h.AnyBeforeUntil(m, pred, nil)
}

// AnyBeforeUntil is AnyBefore with search pruning: nodes for which stop
// returns true are tested against pred but their own predecessors are not
// explored. Neither callback may call back into h.
func (h *History) AnyBeforeUntil(m amcast.MsgID, pred, stop func(amcast.MsgID) bool) bool {
	return h.walkBack(m, func(s uint32) (bool, bool) {
		id := h.nodes[s].id
		if pred(id) {
			return true, false
		}
		return false, stop != nil && stop(id)
	})
}

// AnyOpenBefore implements the second can-deliver condition of
// Algorithm 3: "is there an undelivered message addressed to me ordered
// before m". The search prunes at locally delivered and at closed nodes —
// the protocol guarantees that when a message is delivered every
// predecessor addressed to this group was delivered first, so nothing
// open can hide behind a delivered node, nor behind a closed one, which
// is an ancestor of a delivered message (CloseWalked). This turns the
// per-delivery dependency check from O(|history|) into O(open frontier).
func (h *History) AnyOpenBefore(m amcast.MsgID) bool {
	found := h.walkBack(m, func(s uint32) (bool, bool) {
		f := h.flags[s]
		return f&flagOpen != 0, f&(flagDelivered|flagClosed) != 0
	})
	h.closable = !found
	return found
}

// Walked reports how many nodes the last walk reached.
func (h *History) Walked() int { return len(h.work) }

// CloseWalked marks closed every node the last walk visited, provided
// that walk was an AnyOpenBefore(m) that found nothing open and the graph
// has not changed since. The owner calls it as it delivers
// m: every such node is then an ancestor of a delivered message, so by
// the argument that lets the walk stop at delivered nodes nothing open
// can precede it, and later walks stop there too. The closed bit is
// derived state: the codec does not write it, and a decoded history
// starts without it.
func (h *History) CloseWalked(m amcast.MsgID) {
	if !h.closable || h.walkFrom != m {
		return
	}
	for _, s := range h.work {
		h.flags[s] |= flagClosed
	}
	h.closable = false
}

// DependsOn reports whether m transitively depends on mPrime (mPrime was
// ordered before m somewhere in the system; depend(m, m') in Algorithm 3).
func (h *History) DependsOn(m, mPrime amcast.MsgID) bool {
	return h.AnyBefore(m, func(id amcast.MsgID) bool { return id == mPrime })
}

// PruneBefore removes every node with a path to flushID (i.e. every
// message ordered before the flush message), their edges and their log
// entries, implementing the garbage collection of §4.3 in one marked
// sweep. The flush node itself survives as the new history root; diff
// cursors stay valid. Returns the number of removed nodes.
func (h *History) PruneBefore(flushID amcast.MsgID) int {
	fs, ok := h.slot(flushID)
	if !ok {
		return 0
	}
	// Collect the prune set: all strict ancestors of flushID, breadth
	// first, the list doubling as the queue.
	h.closable = false
	epoch := h.nextEpoch()
	h.mark[fs] = epoch
	doomed := h.pushPreds(h.work[:0], fs, epoch)
	for i := 0; i < len(doomed); i++ {
		doomed = h.pushPreds(doomed, doomed[i], epoch)
	}
	h.work = doomed[:0]
	if len(doomed) == 0 {
		return 0
	}
	h.mark[fs] = 0 // from here on a node is doomed iff it carries the stamp

	live := h.log[:0]
	for _, le := range h.log {
		if h.mark[le.a] == epoch || (le.b != noSlot && h.mark[le.b] == epoch) {
			continue
		}
		live = append(live, le)
	}
	h.log = live

	for _, s := range doomed {
		nd := &h.nodes[s]
		// Every predecessor of a doomed node is doomed too (or, in a cyclic
		// graph, the flush node); only its edges into survivors need
		// unlinking.
		for i := uint32(0); i < nd.succ.n; i++ {
			if t := nd.succ.at(i); h.mark[t] != epoch {
				h.dropMarked(&h.preds[t], epoch)
			}
		}
		h.countDst(nd.dst, -1)
		h.index.del(uint64(nd.id))
		h.preds[s].truncate(0)
		nd.succ.truncate(0)
		nd.id, nd.dst, h.flags[s] = 0, nil, 0
		h.free = append(h.free, s)
	}
	// A no-op unless a cycle runs through the flush node.
	h.dropMarked(&h.nodes[fs].succ, epoch)
	return len(doomed)
}

// dropMarked removes the slots carrying the epoch stamp from a.
func (h *History) dropMarked(a *adj, epoch uint32) {
	k := uint32(0)
	for i := uint32(0); i < a.n; i++ {
		if s := a.at(i); h.mark[s] != epoch {
			a.set(k, s)
			k++
		}
	}
	a.truncate(k)
}

// Snapshot returns all live nodes sorted by id and all live edges sorted
// by (from, to); used by tests and debugging dumps.
func (h *History) Snapshot() ([]Node, []amcast.HistEdge) {
	ns := make([]Node, 0, h.Len())
	var es []amcast.HistEdge
	for i := range h.nodes {
		nd := &h.nodes[i]
		if h.flags[i]&flagLive == 0 {
			continue
		}
		ns = append(ns, Node{ID: nd.id, Dst: nd.dst})
		for j := uint32(0); j < nd.succ.n; j++ {
			es = append(es, amcast.HistEdge{From: nd.id, To: h.nodes[nd.succ.at(j)].id})
		}
	}
	slices.SortFunc(ns, func(a, b Node) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(es, func(a, b amcast.HistEdge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return ns, es
}

// CheckAcyclic verifies that the live dependency graph is a DAG. A cycle
// would mean the protocol violated acyclic order; tests call this after
// every merge.
func (h *History) CheckAcyclic() error {
	// Kahn's algorithm: peel nodes without unpeeled predecessors; whatever
	// cannot be peeled lies on or behind a cycle.
	indeg := make([]uint32, len(h.nodes))
	var ready []uint32
	for i := range h.nodes {
		if h.flags[i]&flagLive != 0 {
			if indeg[i] = h.preds[i].n; indeg[i] == 0 {
				ready = append(ready, uint32(i))
			}
		}
	}
	for len(ready) > 0 {
		s := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		succ := &h.nodes[s].succ
		for j := uint32(0); j < succ.n; j++ {
			t := succ.at(j)
			if indeg[t]--; indeg[t] == 0 {
				ready = append(ready, t)
			}
		}
	}
	for i, d := range indeg {
		if d > 0 {
			return fmt.Errorf("history: cycle through or before %s", h.nodes[i].id)
		}
	}
	return nil
}
