package hierarchical_test

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/hierarchical"
	"flexcast/internal/prototest"
	"flexcast/internal/wan"
)

// TestBatchStepEquivalence checks the amcast.BatchStepper contract:
// draining a group's input sequence in arbitrary chunks produces exactly
// the outputs and deliveries of the per-envelope path.
func TestBatchStepEquivalence(t *testing.T) {
	tr := wan.T1()
	for seed := int64(0); seed < 4; seed++ {
		prototest.RunBatchEquivalence(t, prototest.RandomConfig{
			Groups:   tr.Groups(),
			Clients:  3,
			Messages: 20,
			Route: func(m amcast.Message) []amcast.NodeID {
				return []amcast.NodeID{amcast.GroupNode(tr.Lca(m.Dst))}
			},
			Factory: func(g amcast.GroupID) amcast.Engine {
				return hierarchical.MustNew(hierarchical.Config{Group: g, Tree: tr})
			},
			Seed: seed*29 + 11,
		})
	}
}

// TestBatchStepSafety runs chunked executions under the node runtime's
// step (prototest.RunChunkedSafety) on the tree protocol; the
// hierarchical baseline is not genuine, so minimality is not asserted.
func TestBatchStepSafety(t *testing.T) {
	tr := wan.T1()
	for seed := int64(0); seed < 2; seed++ {
		prototest.RunChunkedSafety(t, prototest.RandomConfig{
			Groups:   tr.Groups(),
			Clients:  3,
			Messages: 15,
			Route: func(m amcast.Message) []amcast.NodeID {
				return []amcast.NodeID{amcast.GroupNode(tr.Lca(m.Dst))}
			},
			Factory: func(g amcast.GroupID) amcast.Engine {
				return hierarchical.MustNew(hierarchical.Config{Group: g, Tree: tr})
			},
			Seed: seed*37 + 5,
		}, false)
	}
}
