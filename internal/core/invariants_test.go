package core_test

import (
	"math/rand"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
)

// TestHistoriesStayAcyclicUnderRandomWorkloads drives random workloads
// through FlexCast and asserts the internal invariant behind Acyclic
// Order: every group's merged history remains a DAG at quiescence.
func TestHistoriesStayAcyclicUnderRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		groups := []amcast.GroupID{1, 2, 3, 4, 5}
		ov := overlay.MustCDAG(groups)
		engines := make(map[amcast.GroupID]*core.Engine)
		rec := prototest.RunRandom(t, prototest.RandomConfig{
			Groups:   groups,
			Clients:  3,
			Messages: 30,
			Route: func(m amcast.Message) []amcast.NodeID {
				return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
			},
			Factory: func(g amcast.GroupID) amcast.Engine {
				e := core.MustNew(core.Config{Group: g, Overlay: ov})
				engines[g] = e
				return e
			},
			Seed:   seed,
			Jitter: 700,
		})
		if err := rec.CheckAll(true); err != nil {
			t.Fatal(err)
		}
		for g, e := range engines {
			if err := e.CheckHistoryAcyclic(); err != nil {
				t.Fatalf("seed %d, group %d: %v", seed, g, err)
			}
			if got := len(e.OpenDependencies()); got != 0 {
				t.Fatalf("seed %d, group %d: %d open dependencies after quiescence",
					seed, g, got)
			}
			if got := e.QueuedMessages(); got != 0 {
				t.Fatalf("seed %d, group %d: %d messages still queued", seed, g, got)
			}
		}
	}
}

// TestRandomWorkloadWithPeriodicFlush interleaves flush messages with a
// random workload and re-checks the full specification — GC must never
// compromise ordering.
func TestRandomWorkloadWithPeriodicFlush(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		groups := []amcast.GroupID{1, 2, 3, 4}
		ov := overlay.MustCDAG(groups)
		var engines map[amcast.GroupID]amcast.Engine
		rec := prototest.RunRandom(t, prototest.RandomConfig{
			Groups:   groups,
			Clients:  1,
			Messages: 60,
			Route: func(m amcast.Message) []amcast.NodeID {
				return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
			},
			Factory: func(g amcast.GroupID) amcast.Engine { return core.MustNew(core.Config{Group: g, Overlay: ov}) },
			Seed:    seed,
			// Interleave application messages with flushes: every 5th
			// message is a flush to all groups.
			NextMessage: func(c, i int, rng *rand.Rand) amcast.Message {
				m := amcast.Message{ID: amcast.NewMsgID(c, uint64(i+1)), Sender: amcast.ClientNode(c)}
				if i%5 == 4 {
					m.Dst, m.Flags = append([]amcast.GroupID(nil), groups...), amcast.FlagFlush
					return m
				}
				n := 1 + rng.Intn(len(groups))
				for _, p := range rng.Perm(len(groups))[:n] {
					m.Dst = append(m.Dst, groups[p])
				}
				m.Dst = amcast.NormalizeDst(m.Dst)
				return m
			},
			OnEngines: func(e map[amcast.GroupID]amcast.Engine) { engines = e },
		})
		if err := rec.CheckAll(true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pruned := 0
		for _, e := range engines {
			pruned += e.(*core.Engine).PrunedNodes()
			if err := e.(*core.Engine).CheckHistoryAcyclic(); err != nil {
				t.Fatal(err)
			}
		}
		if pruned == 0 {
			t.Fatal("flush messages pruned nothing")
		}
	}
}
