package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/gtpcc"
	"flexcast/internal/hierarchical"
	"flexcast/internal/overlay"
	"flexcast/internal/skeen"
)

var deltaGroups = []amcast.GroupID{1, 2, 3, 4}

// deltaStack builds one group's engine of a deployment over deltaGroups,
// bare or under an executor, routes its requests and decodes its
// snapshots.
type deltaStack struct {
	name   string
	mk     func(g amcast.GroupID) amcast.DeltaEngine
	route  func(m amcast.Message) []amcast.NodeID
	decode func([]byte) (amcast.Snapshot, error)
}

func deltaStacks(t testing.TB) []deltaStack {
	ov := overlay.MustCDAG(deltaGroups)
	tree := overlay.MustTree(1, map[amcast.GroupID][]amcast.GroupID{1: {2, 3}, 3: {4}})
	executor := func(mk func(g amcast.GroupID) amcast.SnapshotEngine, mirror bool) func(g amcast.GroupID) amcast.DeltaEngine {
		return func(g amcast.GroupID) amcast.DeltaEngine {
			ex, err := NewExecutor(mk(g), Config{Warehouse: g, Seed: 3}, mirror)
			if err != nil {
				t.Fatal(err)
			}
			return ex
		}
	}
	flexcast := func(g amcast.GroupID) amcast.SnapshotEngine { return core.MustNew(core.Config{Group: g, Overlay: ov}) }
	lca := func(m amcast.Message) []amcast.NodeID { return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))} }
	return []deltaStack{
		{
			name:   "flexcast",
			mk:     func(g amcast.GroupID) amcast.DeltaEngine { return core.MustNew(core.Config{Group: g, Overlay: ov}) },
			route:  lca,
			decode: core.UnmarshalSnapshot,
		},
		{name: "flexcast+store", mk: executor(flexcast, false), route: lca, decode: decodeExecCore},
		{name: "flexcast+store+mirror", mk: executor(flexcast, true), route: lca, decode: decodeExecCore},
		{
			name: "skeen+store",
			mk: executor(func(g amcast.GroupID) amcast.SnapshotEngine {
				return skeen.MustNew(skeen.Config{Group: g, Groups: deltaGroups})
			}, false),
			route: func(m amcast.Message) []amcast.NodeID {
				nodes := make([]amcast.NodeID, len(m.Dst))
				for i, g := range m.Dst {
					nodes[i] = amcast.GroupNode(g)
				}
				return nodes
			},
			decode: func(data []byte) (amcast.Snapshot, error) { return UnmarshalSnapshot(data, skeen.UnmarshalSnapshot) },
		},
		{
			name: "hierarchical+store",
			mk: executor(func(g amcast.GroupID) amcast.SnapshotEngine {
				return hierarchical.MustNew(hierarchical.Config{Group: g, Tree: tree})
			}, true),
			route: func(m amcast.Message) []amcast.NodeID { return []amcast.NodeID{amcast.GroupNode(tree.Lca(m.Dst))} },
			decode: func(data []byte) (amcast.Snapshot, error) {
				return UnmarshalSnapshot(data, hierarchical.UnmarshalSnapshot)
			},
		},
	}
}

// runDeltaSchedule runs txs gTPC-C transactions, with a flush to every
// group after every 150th, through the stack's engines on links that are
// FIFO but interleave at random and repeat one envelope in twenty, a few
// hops per injected transaction so that messages overlap in flight. visit
// sees a group's engine after every input it consumed and drained.
func runDeltaSchedule(stack deltaStack, seed int64, txs int, visit func(g amcast.GroupID, eng amcast.DeltaEngine)) {
	rng := rand.New(rand.NewSource(seed))
	engines := make(map[amcast.GroupID]amcast.DeltaEngine)
	gens := make([]*gtpcc.Gen, len(deltaGroups))
	for i, home := range deltaGroups {
		engines[home] = stack.mk(home)
		var nearest []amcast.GroupID
		for _, g := range deltaGroups {
			if g != home {
				nearest = append(nearest, g)
			}
		}
		gens[i] = gtpcc.MustNew(gtpcc.Config{Home: home, Nearest: nearest, Locality: 0.5}, rand.New(rand.NewSource(seed*7+int64(i))))
	}
	type link struct{ from, to amcast.NodeID }
	queues := make(map[link][]amcast.Envelope)
	var links []link // in order of first use, so that picks are seeded
	send := func(l link, env amcast.Envelope) {
		if _, ok := queues[l]; !ok {
			links = append(links, l)
		}
		queues[l] = append(queues[l], env)
	}
	pending := 0
	step := func() {
		var l link
		for l = links[rng.Intn(len(links))]; len(queues[l]) == 0; l = links[rng.Intn(len(links))] {
		}
		env := queues[l][0]
		queues[l] = queues[l][1:]
		pending--
		if rng.Intn(20) == 0 {
			send(l, env)
			pending++
		}
		g := l.to.Group()
		for _, out := range engines[g].OnEnvelope(env) {
			if !out.To.IsClient() {
				send(link{l.to, out.To}, out.Env)
				pending++
			}
		}
		engines[g].TakeDeliveries()
		visit(g, engines[g])
	}
	for i := 0; i < txs; i++ {
		tx := gens[rng.Intn(len(gens))].Next()
		m := amcast.Message{ID: amcast.NewMsgID(0, uint64(i+1)), Sender: amcast.ClientNode(0), Dst: tx.Dst, Payload: gtpcc.EncodeTx(tx)}
		if i%150 == 149 {
			m = amcast.Message{ID: amcast.NewMsgID(1, uint64(i+1)), Sender: amcast.ClientNode(1), Dst: deltaGroups, Flags: amcast.FlagFlush}
		}
		for _, to := range stack.route(m) {
			send(link{m.Sender, to}, amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
			pending++
		}
		for n := 0; n < 3 && pending > 0; n++ {
			step()
		}
	}
	for pending > 0 {
		step()
	}
}

// splitState is AppendSplit of the engine's snapshot against nothing: the
// body and the whole tail. It is the delta from the zero mark, which a
// fresh engine applies to the same state.
func splitState(t testing.TB, stack deltaStack, g amcast.GroupID, eng amcast.DeltaEngine) ([]byte, []byte) {
	t.Helper()
	body, tail, err := eng.Snapshot().(amcast.BinarySnapshot).AppendSplit(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	zb, zt, err := eng.AppendDelta(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := amcast.JoinSnapshot(body, tail)
	if !bytes.Equal(amcast.JoinSnapshot(zb, zt), data) {
		t.Fatalf("group %d: the snapshot does not marshal to the delta from the zero mark", g)
	}
	fresh := stack.mk(g)
	if err := fresh.ApplyDelta(data); err != nil {
		t.Fatalf("group %d: a fresh engine does not apply the delta from the zero mark: %v", g, err)
	}
	if again, err := fresh.Snapshot().(amcast.BinarySnapshot).MarshalBinary(); err != nil || !bytes.Equal(again, data) {
		t.Fatalf("group %d: a fresh engine that applied the delta from the zero mark marshals to other bytes (%v)", g, err)
	}
	return body, tail
}

// deltaChain is a snapshot and the deltas written behind it, each against
// the state at the checkpoint before.
type deltaChain struct {
	base   []byte
	mark   amcast.Mark
	deltas [][]byte
	left   int // deltas the chain takes before the next snapshot
}

// TestDeltaChainRestoresLiveState is the equivalence gate of the delta
// path: a chain of a snapshot and the deltas behind it must restore
// exactly what a snapshot of the live engine restores. Random schedules —
// interleaved links, repeated envelopes, flushes whose prunes make a
// delta carry its history whole — run through each stack; at every
// checkpoint (after 1 to cadence inputs of a group, at random, so that
// some span no delivery) the group's chain grows by
// a delta or, at random, starts again from a snapshot, and a fresh engine
// restored from the chain's snapshot and brought through all of its
// deltas must split into the live engine's body and tail to the byte. An
// unrelated Snapshot() is taken between checkpoints: a chain's base is
// the mark its holder keeps, which no other caller moves.
func TestDeltaChainRestoresLiveState(t *testing.T) {
	const cadence = 16
	for _, stack := range deltaStacks(t) {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", stack.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				chains := make(map[amcast.GroupID]*deltaChain)
				inputs, next := make(map[amcast.GroupID]int), make(map[amcast.GroupID]int)
				pruned := make(map[amcast.GroupID]int)
				slots, images := 0, 0 // checks whose last delta spans no prune, one
				runDeltaSchedule(stack, seed, 1200, func(g amcast.GroupID, eng amcast.DeltaEngine) {
					if inputs[g]++; inputs[g]%cadence == cadence/2 {
						eng.Snapshot()
						return
					}
					if inputs[g] < next[g] {
						return
					}
					next[g] = inputs[g] + 1 + rng.Intn(cadence)
					c := chains[g]
					if c == nil || c.left == 0 {
						data, err := eng.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						c = &deltaChain{base: data, mark: eng.Mark(), left: 1 + rng.Intn(8)}
						chains[g] = c
					} else {
						body, tail, err := eng.AppendDelta(nil, nil, c.mark)
						if err != nil {
							t.Fatal(err)
						}
						c.mark, c.deltas, c.left = eng.Mark(), append(c.deltas, amcast.JoinSnapshot(body, tail)), c.left-1
					}
					fresh := stack.mk(g)
					snap, err := stack.decode(c.base)
					if err == nil {
						err = fresh.Restore(snap)
					}
					if err != nil {
						t.Fatal(err)
					}
					for i, d := range c.deltas {
						if err := fresh.ApplyDelta(d); err != nil {
							t.Fatalf("group %d, input %d: delta %d of %d: %v", g, inputs[g], i+1, len(c.deltas), err)
						}
					}
					wantBody, wantTail := splitState(t, stack, g, eng)
					body, tail := splitState(t, stack, g, fresh)
					if !bytes.Equal(body, wantBody) || !bytes.Equal(tail, wantTail) {
						t.Fatalf("group %d, input %d: a snapshot and %d deltas restore another state than the live engine's", g, inputs[g], len(c.deltas))
					}
					switch n := prunedNodes(eng); {
					case n < 0, len(c.deltas) == 0:
					case n > pruned[g]:
						images++
					default:
						slots++
					}
					pruned[g] = prunedNodes(eng)
				})
				if prunedNodes(stack.mk(1)) >= 0 && (slots < 20 || images < 3) {
					t.Fatalf("%d deltas checked after a prune, %d with none since the checkpoint before", images, slots)
				}
			})
		}
	}
}

// prunedNodes reports the history nodes the FlexCast engine in eng ever
// pruned, -1 for another protocol's engine.
func prunedNodes(eng amcast.SnapshotEngine) int {
	if ex, ok := eng.(*Executor); ok {
		eng = ex.eng
	}
	if ce, ok := eng.(*core.Engine); ok {
		return ce.PrunedNodes()
	}
	return -1
}

// deltaCorpus runs a short schedule through stack and returns group 1's
// state at its first checkpoint, encoded, and deltas written against it
// at each later one — for FlexCast, a prune behind several of them.
func deltaCorpus(tb testing.TB, stack deltaStack) (base []byte, deltas [][]byte) {
	var mark amcast.Mark
	inputs := 0
	runDeltaSchedule(stack, 1, 400, func(g amcast.GroupID, eng amcast.DeltaEngine) {
		if g != 1 {
			return
		}
		if inputs++; inputs%16 != 0 {
			return
		}
		if base == nil {
			data, err := eng.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
			if err != nil {
				tb.Fatal(err)
			}
			base, mark = data, eng.Mark()
			return
		}
		body, tail, err := eng.AppendDelta(nil, nil, mark)
		if err != nil {
			tb.Fatal(err)
		}
		deltas = append(deltas, amcast.JoinSnapshot(body, tail))
	})
	if len(deltas) < 4 {
		tb.Fatalf("%s: %d deltas in the corpus", stack.name, len(deltas))
	}
	return base, deltas
}

// FuzzApplyDelta: a delta that is truncated or corrupted must make
// ApplyDelta fail, never panic, and a failed one must leave the engine as
// it was; one that applies must leave a state whose snapshot decodes and
// restores to itself. The input's first argument picks the stack, whose
// corpus seeds it.
func FuzzApplyDelta(f *testing.F) {
	stacks := deltaStacks(f)
	bases, corpora := make([][]byte, len(stacks)), make([][][]byte, len(stacks))
	for i, stack := range stacks {
		bases[i], corpora[i] = deltaCorpus(f, stack)
		for _, d := range corpora[i] {
			f.Add(uint8(i), d)
			f.Add(uint8(i), d[:len(d)-1])
			f.Add(uint8(i), d[:len(d)/2])
			bad := slices.Clone(d)
			bad[len(bad)/3] ^= 0x5A
			f.Add(uint8(i), bad)
		}
	}
	marshal := func(t *testing.T, eng amcast.SnapshotEngine) []byte {
		data, err := eng.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	f.Fuzz(func(t *testing.T, which uint8, delta []byte) {
		i := int(which) % len(stacks)
		stack, base := stacks[i], bases[i]
		restore := func(data []byte) amcast.DeltaEngine {
			eng := stack.mk(1)
			snap, err := stack.decode(data)
			if err == nil {
				err = eng.Restore(snap)
			}
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		eng := restore(base)
		if err := eng.ApplyDelta(delta); err != nil {
			if !bytes.Equal(marshal(t, eng), base) {
				t.Fatalf("%s: a delta that failed (%v) changed the engine", stack.name, err)
			}
			return
		}
		for _, d := range corpora[i] {
			if len(delta) < len(d) && bytes.Equal(delta, d[:len(delta)]) {
				t.Fatalf("%s: a delta cut to %d of its %d bytes applied", stack.name, len(delta), len(d))
			}
		}
		state := marshal(t, eng)
		if got := marshal(t, restore(state)); !bytes.Equal(got, state) {
			t.Fatalf("%s: the state a delta left does not survive its own snapshot", stack.name)
		}
	})
}
