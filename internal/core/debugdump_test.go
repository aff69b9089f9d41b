package core

import (
	"reflect"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/history"
	"flexcast/internal/overlay"
)

// TestDebugDumpChangesNothing: DebugDump evaluates canDeliver for every
// queued message, walking the history, but closing happens only where
// reprocess delivers — so a dump leaves the history, its closed nodes and
// the next condition-2 answer exactly as they were.
func TestDebugDumpChangesNothing(t *testing.T) {
	dst12, dst13, dst23 := []amcast.GroupID{1, 2}, []amcast.GroupID{1, 3}, []amcast.GroupID{2, 3}
	e := MustNew(Config{Group: 2, Overlay: overlay.MustCDAG([]amcast.GroupID{1, 2, 3})})
	msg := func(id amcast.MsgID, d *amcast.HistDelta) amcast.Envelope {
		return amcast.Envelope{Kind: amcast.KindMsg, From: amcast.GroupNode(1), Msg: amcast.Message{
			ID: id, Sender: amcast.ClientNode(0), Dst: dst12,
		}, Hist: d}
	}
	// A (1) is delivered; D (4) behind Q (5, not addressed here) is
	// delivered and closes Q; B (2) waits behind X (7), open here, and holds
	// up the queue.
	e.OnEnvelope(msg(1, &amcast.HistDelta{Nodes: []amcast.HistNode{{ID: 1, Dst: dst12}}}))
	e.OnEnvelope(msg(4, &amcast.HistDelta{
		Nodes: []amcast.HistNode{{ID: 5, Dst: dst13}, {ID: 4, Dst: dst12}},
		Edges: []amcast.HistEdge{{From: 1, To: 5}, {From: 5, To: 4}},
	}))
	e.OnEnvelope(msg(2, &amcast.HistDelta{
		Nodes: []amcast.HistNode{{ID: 7, Dst: dst23}, {ID: 2, Dst: dst12}},
		Edges: []amcast.HistEdge{{From: 4, To: 7}, {From: 7, To: 2}},
	}))
	// C (3) queues behind B; nothing open precedes it, so the dump's
	// canDeliver(C) walks back over Q' (6) and finds nothing.
	e.OnEnvelope(msg(3, &amcast.HistDelta{
		Nodes: []amcast.HistNode{{ID: 6, Dst: dst13}, {ID: 3, Dst: dst12}},
		Edges: []amcast.HistEdge{{From: 6, To: 3}},
	}))
	if got := len(e.TakeDeliveries()); got != 2 {
		t.Fatalf("%d deliveries, want A and D", got)
	}
	if !e.hst.Closed(5) {
		t.Fatal("Q not closed by D's delivery")
	}
	type state struct {
		nodes  []history.Node
		edges  []amcast.HistEdge
		image  string
		closed []amcast.MsgID
		open   bool
	}
	snap := func() state {
		var s state
		s.nodes, s.edges = e.HistorySnapshot()
		s.image = string(e.hst.AppendBinary(nil))
		for _, n := range s.nodes {
			if e.hst.Closed(n.ID) {
				s.closed = append(s.closed, n.ID)
			}
		}
		s.open = e.hst.AnyOpenBefore(2)
		return s
	}
	before := snap()
	if !before.open {
		t.Fatal("B is not blocked")
	}
	if dump := e.DebugDump(); !strings.Contains(dump, "canDeliver=false") || !strings.Contains(dump, "canDeliver=true") {
		t.Fatalf("dump does not show the blocked message:\n%s", dump)
	}
	if after := snap(); !reflect.DeepEqual(before, after) {
		t.Fatalf("DebugDump changed the engine:\nbefore %+v\nafter  %+v", before, after)
	}
}
