package core_test

import (
	"flag"
	"slices"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/snapshot.golden from this tree")

func marshal(t *testing.T, eng amcast.SnapshotEngine) []byte {
	t.Helper()
	data, err := eng.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotMatchesGolden pins the record format byte for byte (the
// delta from the zero mark: g ‖ 1 ‖ history image ‖ 0 ‖ sections ‖ 0 ‖
// count ‖ delivery log). The cases are a lone group that delivered ids on
// every page and client boundary (prototest.BoundaryIDs), a group holding
// a two-node history and an accepted-notification log from NOTIFs about
// messages addressed elsewhere, and every group of four seeded random
// runs after quiescence.
func TestSnapshotMatchesGolden(t *testing.T) {
	var encs [][]byte
	lone := core.MustNew(core.Config{Group: 1, Overlay: overlay.MustCDAG([]amcast.GroupID{1, 2})})
	for _, id := range prototest.BoundaryIDs() {
		lone.OnEnvelope(amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(0),
			Msg: amcast.Message{ID: id, Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1}}})
	}
	lone.TakeDeliveries()
	encs = append(encs, marshal(t, lone))

	notified := core.MustNew(core.Config{Group: 2, Overlay: overlay.MustCDAG([]amcast.GroupID{1, 2, 3})})
	a, b := amcast.NewMsgID(0, 1), amcast.NewMsgID(0, 2)
	notif := func(epoch uint64, hist *amcast.HistDelta) amcast.Envelope {
		return amcast.Envelope{Kind: amcast.KindNotif, From: amcast.GroupNode(1), CertEpoch: epoch, Hist: hist,
			Msg: amcast.Message{ID: a, Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1, 3}}}
	}
	notified.OnEnvelope(notif(2, &amcast.HistDelta{
		Nodes: []amcast.HistNode{{ID: a, Dst: []amcast.GroupID{1, 3}}, {ID: b, Dst: []amcast.GroupID{1, 3}}},
		Edges: []amcast.HistEdge{{From: a, To: b}},
	}))
	notified.OnEnvelope(notif(4, nil))
	encs = append(encs, marshal(t, notified))

	groups := []amcast.GroupID{1, 2, 3, 4}
	ov := overlay.MustCDAG(groups)
	for seed := int64(1); seed <= 4; seed++ {
		prototest.RunRandom(t, prototest.RandomConfig{
			Groups:   groups,
			Clients:  3,
			Messages: 15,
			Route: func(m amcast.Message) []amcast.NodeID {
				return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
			},
			Factory: func(g amcast.GroupID) amcast.Engine { return core.MustNew(core.Config{Group: g, Overlay: ov}) },
			Seed:    seed,
			Jitter:  3000,
			OnEngines: func(engines map[amcast.GroupID]amcast.Engine) {
				gs := make([]amcast.GroupID, 0, len(engines))
				for g := range engines {
					gs = append(gs, g)
				}
				slices.Sort(gs)
				for _, g := range gs {
					encs = append(encs, marshal(t, engines[g].(amcast.SnapshotEngine)))
				}
			},
		})
	}
	prototest.MatchGolden(t, "testdata/snapshot.golden", *updateGolden, encs)
}
