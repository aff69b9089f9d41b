package core_test

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
)

// TestSnapshotBinaryRoundTrip runs random workloads to populate rich
// engine state (history DAG, pending tables, notif state, cursors) and
// audits the binary snapshot codec: marshal → decode → restore →
// re-marshal must be byte-identical.
func TestSnapshotBinaryRoundTrip(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3, 4}
	ov, err := overlay.NewCDAG(groups)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(g amcast.GroupID) amcast.Engine {
		return core.MustNew(core.Config{Group: g, Overlay: ov})
	}
	route := func(m amcast.Message) []amcast.NodeID {
		return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
	}
	for seed := int64(1); seed <= 4; seed++ {
		prototest.RunRandom(t, prototest.RandomConfig{
			Groups:   groups,
			Clients:  3,
			Messages: 15,
			Route:    route,
			Factory:  factory,
			Seed:     seed,
			Jitter:   3000,
			OnEngines: func(engines map[amcast.GroupID]amcast.Engine) {
				for g, eng := range engines {
					fresh := core.MustNew(core.Config{Group: g, Overlay: ov})
					prototest.CheckBinarySnapshot(t, eng.(amcast.SnapshotEngine), fresh, core.UnmarshalSnapshot)
				}
			},
		})
	}
}
