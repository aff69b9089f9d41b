package transport

import (
	"reflect"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
)

// TestTCPFlexCastThreeGroups runs the full FlexCast protocol over real
// TCP sockets: overlapping destination sets force MSG, ACK and NOTIF
// traffic across connections, and all groups must converge on consistent
// orders.
func TestTCPFlexCastThreeGroups(t *testing.T) {
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2, 3})
	ids := []amcast.NodeID{
		amcast.GroupNode(1), amcast.GroupNode(2), amcast.GroupNode(3),
		amcast.ClientNode(0),
	}
	mesh := tcpBook(t, ids...)

	log := newDeliverLog()
	for _, g := range ov.Order() {
		hostTCP(t, core.MustNew(core.Config{Group: g, Overlay: ov}), mesh, log.add)
	}
	cl := tcpNode(t, mesh, amcast.ClientNode(0), func(amcast.Envelope) {})

	// The Figure-3(c) message pattern plus extras, issued in sequence so
	// the entry order is deterministic.
	script := []amcast.Message{
		msg(1, 2, 3),    // lca 2
		msg(2, 1, 2),    // lca 1
		msg(3, 1, 3),    // lca 1: triggers NOTIF to 2
		msg(4, 1, 2, 3), // lca 1
		msg(5, 3),       // local
	}
	for _, m := range script {
		entry := amcast.GroupNode(ov.Lca(m.Dst))
		if err := cl.Send(entry, amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return log.total() == 10 })

	// Pairwise order consistency over shared messages.
	seqs := map[amcast.GroupID][]amcast.MsgID{
		1: log.seq(1), 2: log.seq(2), 3: log.seq(3),
	}
	for g1 := amcast.GroupID(1); g1 <= 3; g1++ {
		for g2 := g1 + 1; g2 <= 3; g2++ {
			a := restrictTo(seqs[g1], seqs[g2])
			b := restrictTo(seqs[g2], seqs[g1])
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("groups %d and %d order shared messages differently: %v vs %v", g1, g2, a, b)
			}
		}
	}
}

// restrictTo filters seq to ids present in other, preserving order.
func restrictTo(seq, other []amcast.MsgID) []amcast.MsgID {
	have := make(map[amcast.MsgID]bool, len(other))
	for _, id := range other {
		have[id] = true
	}
	var out []amcast.MsgID
	for _, id := range seq {
		if have[id] {
			out = append(out, id)
		}
	}
	return out
}
