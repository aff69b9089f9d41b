package core_test

import (
	"sync/atomic"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
)

// walkTally counts the condition-2 walks core.WalkCheck reports.
type walkTally struct {
	walks, disagree, pruned atomic.Int64
	fullNodes, prunedNodes  atomic.Int64
	first                   atomic.Pointer[core.WalkReport]
}

// checkWalks installs a WalkCheck for the rest of the test.
func checkWalks(t *testing.T) *walkTally {
	w := &walkTally{}
	f := func(r core.WalkReport) {
		w.walks.Add(1)
		w.fullNodes.Add(int64(r.FullNodes))
		w.prunedNodes.Add(int64(r.PrunedNodes))
		if r.PrunedNodes < r.FullNodes {
			w.pruned.Add(1)
		}
		if r.Full != r.Pruned {
			w.disagree.Add(1)
			w.first.CompareAndSwap(nil, &r)
		}
	}
	if !core.WalkCheck.CompareAndSwap(nil, &f) {
		t.Fatal("a walk check is installed already")
	}
	t.Cleanup(func() { core.WalkCheck.Store(nil) })
	return w
}

// verify fails on any disagreement and on a vacuous run: no walks, or no
// walk the closed rule made shorter.
func (w *walkTally) verify(t *testing.T) {
	t.Helper()
	if r := w.first.Load(); r != nil {
		t.Fatalf("%d of %d walks disagree; first: %+v", w.disagree.Load(), w.walks.Load(), *r)
	}
	n := w.walks.Load()
	if n == 0 || w.pruned.Load() == 0 {
		t.Fatalf("%d walks, %d shortened by closed nodes: the check saw nothing to check", n, w.pruned.Load())
	}
	t.Logf("%d walks agree; %d stopped earlier at closed nodes; nodes reached per walk: full %.1f, pruned %.1f",
		n, w.pruned.Load(), float64(w.fullNodes.Load())/float64(n), float64(w.prunedNodes.Load())/float64(n))
}

// TestClosedWalkAgreesWithFullWalk checks the closed rule (DESIGN.md §4
// deviation 5) against the walk it prunes: on every canDeliver of the
// ring-cycle script and of the chunked-equivalence runs, the answer of
// the walk that stops at closed nodes equals AnyBeforeUntil(m, open,
// delivered) over the engine's own sets.
func TestClosedWalkAgreesWithFullWalk(t *testing.T) {
	w := checkWalks(t)
	t.Run("ring-cycle", TestFreshRequestRingCycle)
	t.Run("chunked", TestBatchStepSafety)
	w.verify(t)
}

// lateDelta delivers A = {1,2} at group 2, prunes it with a flush, and
// returns the engine and a MSG envelope for B = {1,2} from group 1. The
// caller gives B a delta in which A re-enters.
func lateDelta(t *testing.T) (*core.Engine, amcast.Envelope) {
	t.Helper()
	const a, flush = 1, 2
	dst := []amcast.GroupID{1, 2}
	e := core.MustNew(core.Config{Group: 2, Overlay: overlay.MustCDAG(dst)})
	msg := func(id amcast.MsgID, flags amcast.MsgFlags, d *amcast.HistDelta) amcast.Envelope {
		return amcast.Envelope{Kind: amcast.KindMsg, From: amcast.GroupNode(1), Msg: amcast.Message{
			ID: id, Sender: amcast.ClientNode(0), Dst: dst, Flags: flags,
		}, Hist: d}
	}
	e.OnEnvelope(msg(a, 0, &amcast.HistDelta{Nodes: []amcast.HistNode{{ID: a, Dst: dst}}}))
	e.OnEnvelope(msg(flush, amcast.FlagFlush, &amcast.HistDelta{
		Nodes: []amcast.HistNode{{ID: flush, Dst: dst}},
		Edges: []amcast.HistEdge{{From: a, To: flush}},
	}))
	if got := len(e.TakeDeliveries()); got != 2 {
		t.Fatalf("%d deliveries, want A and the flush", got)
	}
	if e.PrunedNodes() == 0 {
		t.Fatal("the flush pruned nothing")
	}
	return e, msg(3, 0, nil)
}

// TestMergeHistMarksReenteringDelivered: a node delivered here, pruned,
// and back through a late diff is flagged delivered, not open — whether
// it re-enters with its destinations or as a placeholder. (mergeHist asks
// the delivered set only about those two kinds of node.) In the late
// diff X = {1,2}, open here, is ordered before A: an input the protocol
// never produces, used to see whether the walk from B stops at A — it
// does only if A is flagged delivered.
func TestMergeHistMarksReenteringDelivered(t *testing.T) {
	dst := []amcast.GroupID{1, 2}
	for name, nodes := range map[string][]amcast.HistNode{
		"addressed":   {{ID: 9, Dst: dst}, {ID: 1, Dst: dst}, {ID: 3, Dst: dst}},
		"placeholder": {{ID: 9, Dst: dst}, {ID: 3, Dst: dst}},
	} {
		t.Run(name, func(t *testing.T) {
			e, b := lateDelta(t)
			b.Hist = &amcast.HistDelta{Nodes: nodes, Edges: []amcast.HistEdge{{From: 9, To: 1}, {From: 1, To: 3}}}
			e.OnEnvelope(b)
			if open := e.OpenDependencies(); len(open) != 1 || open[0] != 9 {
				t.Fatalf("open dependencies %v, want only X", open)
			}
			if got := e.TakeDeliveries(); len(got) != 1 || got[0].Msg.ID != 3 {
				t.Fatalf("deliveries %v: the walk from B looked past the re-entered node", got)
			}
		})
	}
}
