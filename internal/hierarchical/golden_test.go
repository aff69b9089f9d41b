package hierarchical_test

import (
	"flag"
	"sort"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/hierarchical"
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

// TestSnapshotMatchesGolden pins the snapshot encoding byte for byte:
// testdata/snapshot.golden was recorded from the engine whose seen set
// was a map[MsgID]bool, encoded by sorting its keys. The cases are a
// root that saw ids on every page and client boundary
// (prototest.BoundaryIDs) — delivering some, relaying the rest — and
// every group of four seeded random runs after quiescence.
func TestSnapshotMatchesGolden(t *testing.T) {
	tree := overlay.MustTree(1, map[amcast.GroupID][]amcast.GroupID{
		1: {2, 3},
		2: {4, 5},
	})
	var encs [][]byte
	root := hierarchical.MustNew(hierarchical.Config{Group: 1, Tree: tree})
	for i, id := range prototest.BoundaryIDs() {
		dst := []amcast.GroupID{1}
		if i%3 == 0 {
			dst = []amcast.GroupID{2, 3} // relayed: seen, not delivered
		}
		root.OnEnvelope(amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(0),
			Msg: amcast.Message{ID: id, Sender: amcast.ClientNode(0), Dst: dst}})
	}
	encs = append(encs, marshal(t, root))

	groups := tree.Groups()
	for seed := int64(1); seed <= 4; seed++ {
		prototest.RunRandom(t, prototest.RandomConfig{
			Groups:   groups,
			Clients:  3,
			Messages: 15,
			Route: func(m amcast.Message) []amcast.NodeID {
				return []amcast.NodeID{amcast.GroupNode(tree.Lca(m.Dst))}
			},
			Factory: func(g amcast.GroupID) amcast.Engine {
				return hierarchical.MustNew(hierarchical.Config{Group: g, Tree: tree})
			},
			Seed:   seed,
			Jitter: 3000,
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
