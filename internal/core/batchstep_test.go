package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
)

// TestBatchStepSafety validates the FlexCast batch fast path (one
// reprocess fixpoint per chunk, consolidated acks) against the full
// atomic multicast specification over seeded random chunked executions,
// including determinism over batch sequences.
func TestBatchStepSafety(t *testing.T) {
	for _, n := range []int{3, 6} {
		for seed := int64(0); seed < 4; seed++ {
			n, seed := n, seed
			t.Run(fmt.Sprintf("groups=%d/seed=%d", n, seed), func(t *testing.T) {
				groups := make([]amcast.GroupID, n)
				for i := range groups {
					groups[i] = amcast.GroupID(i + 1)
				}
				ov := overlay.MustCDAG(groups)
				prototest.RunChunkedSafety(t, prototest.RandomConfig{
					Groups:   groups,
					Clients:  3,
					Messages: 20,
					Route: func(m amcast.Message) []amcast.NodeID {
						return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
					},
					Factory: func(g amcast.GroupID) amcast.Engine {
						return core.MustNew(core.Config{Group: g, Overlay: ov})
					},
					Seed: seed*137 + int64(n),
				}, true)
			})
		}
	}
}

// TestPriorityDrainSafety validates the node runtime's receiver-side
// control-priority drain against the full multicast specification:
// chunked executions in which every chunk is reordered control-first
// (per-sender FIFO preserved — the exact permutation runtime.Node.take
// applies under backlog) must still deliver acyclically, agree, stay
// genuine and remain deterministic. FlexCast is the protocol whose
// incremental history diffs are most sensitive to reordering, which is
// why the drain's safety argument (DESIGN.md §1b) is proven here.
func TestPriorityDrainSafety(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3, 4, 5}
	ov := overlay.MustCDAG(groups)
	for seed := int64(0); seed < 4; seed++ {
		prototest.RunChunkedSafety(t, prototest.RandomConfig{
			Groups:   groups,
			Clients:  3,
			Messages: 25,
			Route: func(m amcast.Message) []amcast.NodeID {
				return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
			},
			Factory: func(g amcast.GroupID) amcast.Engine {
				return core.MustNew(core.Config{Group: g, Overlay: ov})
			},
			Seed:          911 + seed,
			PriorityDrain: true,
		}, true)
	}
}

// TestBatchStepSingletonMatchesOnEnvelope pins the chunk-size-1 case:
// a 1-envelope batch must be byte-identical to OnEnvelope.
func TestBatchStepSingletonMatchesOnEnvelope(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3}
	ov := overlay.MustCDAG(groups)
	a := core.MustNew(core.Config{Group: 2, Overlay: ov})
	b := core.MustNew(core.Config{Group: 2, Overlay: ov})

	msgs := []amcast.Envelope{
		{Kind: amcast.KindMsg, From: amcast.GroupNode(1), Msg: amcast.Message{
			ID: amcast.NewMsgID(0, 1), Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1, 2},
		}},
		{Kind: amcast.KindAck, From: amcast.GroupNode(1), Msg: amcast.Message{
			ID: amcast.NewMsgID(0, 1), Dst: []amcast.GroupID{1, 2},
		}},
		{Kind: amcast.KindRequest, From: amcast.ClientNode(0), Msg: amcast.Message{
			ID: amcast.NewMsgID(0, 2), Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{2, 3},
		}},
	}
	for i, env := range msgs {
		outsA := a.OnEnvelope(env)
		outsB := b.BatchStep([]amcast.Envelope{env})
		if !reflect.DeepEqual(outsA, outsB) {
			t.Fatalf("envelope %d: outputs diverge:\n OnEnvelope %v\n BatchStep  %v", i, outsA, outsB)
		}
		if !reflect.DeepEqual(a.TakeDeliveries(), b.TakeDeliveries()) {
			t.Fatalf("envelope %d: deliveries diverge", i)
		}
	}
}
