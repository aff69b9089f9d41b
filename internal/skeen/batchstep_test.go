package skeen_test

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/prototest"
	"flexcast/internal/skeen"
)

// TestBatchStepEquivalence checks the amcast.BatchStepper contract:
// draining a group's input sequence in arbitrary chunks produces exactly
// the outputs and deliveries of the per-envelope path.
func TestBatchStepEquivalence(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3, 4, 5}
	for seed := int64(0); seed < 4; seed++ {
		prototest.RunBatchEquivalence(t, prototest.RandomConfig{
			Groups:   groups,
			Clients:  3,
			Messages: 20,
			Route: func(m amcast.Message) []amcast.NodeID {
				nodes := make([]amcast.NodeID, len(m.Dst))
				for i, g := range m.Dst {
					nodes[i] = amcast.GroupNode(g)
				}
				return nodes
			},
			Factory: func(g amcast.GroupID) amcast.Engine {
				return skeen.MustNew(skeen.Config{Group: g, Groups: groups})
			},
			Seed: seed*23 + 3,
		})
	}
}

// TestBatchStepSafety runs chunked executions under the node runtime's
// step (prototest.RunChunkedSafety): Skeen orders by timestamps
// exchanged in TS envelopes — exactly the control class take's priority
// drain promotes under backlog — so the full spec must survive it.
func TestBatchStepSafety(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3, 4, 5}
	for seed := int64(0); seed < 2; seed++ {
		prototest.RunChunkedSafety(t, prototest.RandomConfig{
			Groups:   groups,
			Clients:  3,
			Messages: 20,
			Route: func(m amcast.Message) []amcast.NodeID {
				nodes := make([]amcast.NodeID, len(m.Dst))
				for i, g := range m.Dst {
					nodes[i] = amcast.GroupNode(g)
				}
				return nodes
			},
			Factory: func(g amcast.GroupID) amcast.Engine {
				return skeen.MustNew(skeen.Config{Group: g, Groups: groups})
			},
			Seed: seed*31 + 7,
		}, true)
	}
}
