package skeen_test

import (
	"flag"
	"sort"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/prototest"
	"flexcast/internal/skeen"
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

// TestSnapshotMatchesGolden pins the snapshot encoding byte for byte:
// testdata/snapshot.golden was recorded from the engine whose delivered
// set was a map[MsgID]bool, encoded by sorting its keys. The cases are
// a lone group that delivered ids on every page and client boundary
// (prototest.BoundaryIDs), the same group with a message still pending,
// and every group of four seeded random runs after quiescence.
func TestSnapshotMatchesGolden(t *testing.T) {
	var encs [][]byte
	lone := skeen.MustNew(skeen.Config{Group: 1, Groups: []amcast.GroupID{1, 2}})
	for _, id := range prototest.BoundaryIDs() {
		lone.OnEnvelope(amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(0),
			Msg: amcast.Message{ID: id, Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1}}})
	}
	encs = append(encs, marshal(t, lone))
	lone.OnEnvelope(amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(0),
		Msg: amcast.Message{ID: amcast.NewMsgID(2, 9), Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1, 2}}})
	encs = append(encs, marshal(t, lone))

	groups := []amcast.GroupID{1, 2, 3, 4}
	for seed := int64(1); seed <= 4; seed++ {
		prototest.RunRandom(t, prototest.RandomConfig{
			Groups:   groups,
			Clients:  3,
			Messages: 15,
			Route: func(m amcast.Message) []amcast.NodeID {
				nodes := make([]amcast.NodeID, len(m.Dst))
				for i, g := range m.Dst {
					nodes[i] = amcast.GroupNode(g)
				}
				return nodes
			},
			Factory: func(g amcast.GroupID) amcast.Engine { return skeen.MustNew(skeen.Config{Group: g, Groups: groups}) },
			Seed:    seed,
			Jitter:  3000,
			OnEngines: func(engines map[amcast.GroupID]amcast.Engine) {
				gs := make([]amcast.GroupID, 0, len(engines))
				for g := range engines {
					gs = append(gs, g)
				}
				sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
				for _, g := range gs {
					encs = append(encs, marshal(t, engines[g].(amcast.SnapshotEngine)))
				}
			},
		})
	}
	prototest.MatchGolden(t, "testdata/snapshot.golden", *updateGolden, encs)
}
