// Micro-benchmarks of the core building blocks. (The paper's tables and
// figures are the paper-* experiments of experiments.json, run by
// cmd/flexgrid.)
//
//	go test -bench=. -benchmem
package flexcast_test

import (
	"math/rand"
	"testing"

	"flexcast"
	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/core"
	"flexcast/internal/history"
	"flexcast/internal/overlay"
	"flexcast/internal/paxos"
	"flexcast/internal/wan"
)

// BenchmarkFlexCastEngineLocal measures the engine's per-message cost
// for local (single-destination) messages at the lca — the fast path.
func BenchmarkFlexCastEngineLocal(b *testing.B) {
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2, 3})
	eng := core.MustNew(core.Config{Group: 1, Overlay: ov})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := amcast.Envelope{
			Kind: amcast.KindRequest,
			From: amcast.ClientNode(0),
			Msg: amcast.Message{
				ID:     amcast.NewMsgID(0, uint64(i+1)),
				Sender: amcast.ClientNode(0),
				Dst:    []amcast.GroupID{1},
			},
		}
		eng.OnEnvelope(env)
		eng.TakeDeliveries()
	}
}

// BenchmarkFlexCastEngineGlobal measures the lca's per-message cost for
// global messages, including history-diff construction.
func BenchmarkFlexCastEngineGlobal(b *testing.B) {
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2, 3})
	eng := core.MustNew(core.Config{Group: 1, Overlay: ov})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := amcast.Envelope{
			Kind: amcast.KindRequest,
			From: amcast.ClientNode(0),
			Msg: amcast.Message{
				ID:     amcast.NewMsgID(0, uint64(i+1)),
				Sender: amcast.ClientNode(0),
				Dst:    []amcast.GroupID{1, 2, 3},
			},
		}
		eng.OnEnvelope(env)
		eng.TakeDeliveries()
	}
}

// BenchmarkHistoryMergeAndCheck measures history merge plus the
// can-deliver dependency walk on a growing history.
func BenchmarkHistoryMergeAndCheck(b *testing.B) {
	h := history.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := amcast.MsgID(i + 1)
		h.Merge(&amcast.HistDelta{
			Nodes: []amcast.HistNode{{ID: id, Dst: []amcast.GroupID{1, 2}}},
			Edges: []amcast.HistEdge{{From: amcast.MsgID(i), To: id}},
		})
		h.AnyBeforeUntil(id,
			func(amcast.MsgID) bool { return false },
			func(x amcast.MsgID) bool { return x < id }) // prune immediately
	}
}

// benchHistory builds the history a group holds when a flush arrives: n
// multi-group messages in this group's delivery chain, every fourth also
// ordered after a message two steps back by another group's chain, and
// the flush (id n+1) delivered last. At n = 18 000 it is the size the
// parent of the arena change pruned per flush on local-inmem.
func benchHistory(n int) *history.History {
	h := history.New()
	for i := 1; i <= n+1; i++ {
		h.AppendDelivered(history.Node{ID: amcast.MsgID(i), Dst: []amcast.GroupID{1, 2}})
		if i%4 == 0 {
			h.AddEdge(amcast.MsgID(i-2), amcast.MsgID(i))
		}
	}
	return h
}

// BenchmarkHistoryPrune measures the flush garbage collection: one marked
// sweep that removes 18 000 nodes, their edges and their log entries.
func BenchmarkHistoryPrune(b *testing.B) {
	const n = 18_000
	image := benchHistory(n).AppendBinary(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := history.Decode(codec.NewReader(image))
		b.StartTimer()
		if got := h.PruneBefore(n + 1); got != n {
			b.Fatalf("pruned %d nodes, want %d", got, n)
		}
	}
}

// BenchmarkHistoryDiffSince measures the per-send diff in steady state:
// one delivery since the descendant's cursor, so the only allocations are
// the returned delta and its two slices.
func BenchmarkHistoryDiffSince(b *testing.B) {
	h := benchHistory(1000)
	_, cur := h.DiffSince(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AppendDelivered(history.Node{ID: amcast.MsgID(2000 + i), Dst: []amcast.GroupID{1, 2}})
		var d *amcast.HistDelta
		if d, cur = h.DiffSince(cur); len(d.Nodes) != 1 || len(d.Edges) != 1 {
			b.Fatalf("diff = %+v", d)
		}
	}
}

// BenchmarkHistoryImage measures what a snapshot pays for a history of
// the size a group holds between flushes once single-group messages stay
// out: its encoding, into a buffer that is already large enough.
func BenchmarkHistoryImage(b *testing.B) {
	h := benchHistory(2000)
	image := h.AppendBinary(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(image)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		image = h.AppendBinary(image[:0])
	}
}

// BenchmarkCodecMarshal measures wire encoding of a typical FlexCast MSG
// envelope with a small history diff.
func BenchmarkCodecMarshal(b *testing.B) {
	env := benchEnvelope()
	b.ReportMetric(float64(codec.Size(env)), "bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.Marshal(env)
	}
}

// BenchmarkCodecUnmarshal measures wire decoding.
func BenchmarkCodecUnmarshal(b *testing.B) {
	buf := codec.Marshal(benchEnvelope())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEnvelope() amcast.Envelope {
	return amcast.Envelope{
		Kind: amcast.KindMsg,
		From: amcast.GroupNode(8),
		Msg: amcast.Message{
			ID:      amcast.NewMsgID(3, 100),
			Sender:  amcast.ClientNode(3),
			Dst:     []amcast.GroupID{6, 7, 8},
			Payload: make([]byte, 128),
		},
		Hist: &amcast.HistDelta{
			Nodes: []amcast.HistNode{
				{ID: 1, Dst: []amcast.GroupID{1, 2}},
				{ID: 2, Dst: []amcast.GroupID{2, 3}},
				{ID: 3, Dst: []amcast.GroupID{6, 7}},
			},
			Edges: []amcast.HistEdge{{From: 1, To: 2}, {From: 2, To: 3}},
		},
		NotifList: []amcast.NotifPair{{Notifier: 2, Notified: 4, Epoch: 1}},
	}
}

// BenchmarkGTPCCWorkload measures a full gTPC-C run of 3 virtual seconds
// on the simulated WAN (the paper-fig1 configuration): events/s of the
// whole simulated stack.
func BenchmarkGTPCCWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := flexcast.RunExperiment(flexcast.Hierarchical, flexcast.ExperimentConfig{
			Locality:   0.90,
			Clients:    240,
			GlobalOnly: true,
			Duration:   3_000_000,
			Seed:       int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaxosDecide measures end-to-end consensus throughput of the
// SMR substrate: proposals decided per second on a 3-replica in-memory
// cluster.
func BenchmarkPaxosDecide(b *testing.B) {
	reps := make([]*paxos.Replica, 3)
	for i := range reps {
		reps[i] = paxos.MustNewReplica(paxos.Config{ID: paxos.ReplicaID(i), N: 3})
	}
	var queue []paxos.Message
	pump := func(ms []paxos.Message) { queue = append(queue, ms...) }
	drain := func() {
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			pump(reps[m.To].OnMessage(m))
		}
	}
	value := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(value)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pump(reps[0].Propose(value))
		drain()
	}
	b.StopTimer()
	for _, r := range reps {
		if got := int(r.Decided()); got != b.N {
			b.Fatalf("replica %d decided %d of %d", r.ID(), got, b.N)
		}
	}
}

// BenchmarkWanLatencyLookup measures the hot-path latency model.
func BenchmarkWanLatencyLookup(b *testing.B) {
	gs := wan.Groups()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += wan.OneWayMicros(gs[i%12], gs[(i+5)%12])
	}
	_ = sink
}
