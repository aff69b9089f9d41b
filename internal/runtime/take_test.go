package runtime

import (
	"sync"
	"testing"

	"flexcast/amcast"
)

func env(kind amcast.Kind, from amcast.NodeID, id uint64) amcast.Envelope {
	return amcast.Envelope{Kind: kind, From: from, Msg: amcast.Message{ID: amcast.MsgID(id)}}
}

// takeNode builds a Node shell with a queue but no worker, so take can
// be driven deterministically.
func takeNode(maxBatch int, queue ...amcast.Envelope) *Node {
	n := &Node{cfg: Config{MaxBatch: maxBatch, QueueDepth: 1024}}
	n.cfg.fill()
	n.cfg.MaxBatch = maxBatch
	n.qcond = sync.NewCond(&n.qmu)
	n.queue = append(n.queue, queue...)
	return n
}

// TestTakePriorityDrain pins the selection down exactly: under backlog,
// the queue head always makes the chunk (fairness), control envelopes
// are promoted past payloads of other senders, but never past an
// earlier *unselected* envelope of their own sender.
func TestTakePriorityDrain(t *testing.T) {
	a, b, c := amcast.GroupNode(1), amcast.GroupNode(2), amcast.GroupNode(3)
	n := takeNode(3,
		env(amcast.KindMsg, a, 1), // P1(a) — head: always selected
		env(amcast.KindAck, a, 2), // C1(a) — P1 selected, so promotable
		env(amcast.KindMsg, b, 3), // P2(b) — blocks b
		env(amcast.KindAck, c, 4), // C2(c) — promoted
		env(amcast.KindAck, a, 5), // C3(a) — cap reached before it
		env(amcast.KindMsg, c, 6), // P3(c)
		env(amcast.KindAck, b, 7), // C4(b) — blocked by P2
	)
	got := n.take(nil, false)
	want := []uint64{1, 2, 4} // head first, then promoted controls in order
	if len(got) != len(want) {
		t.Fatalf("take returned %d envelopes, want %d", len(got), len(want))
	}
	for i, w := range want {
		if uint64(got[i].Msg.ID) != w {
			t.Fatalf("take[%d] = msg %d, want %d (chunk %v)", i, got[i].Msg.ID, w, got)
		}
	}
	rest := []uint64{3, 5, 6, 7}
	if len(n.queue) != len(rest) {
		t.Fatalf("queue keeps %d envelopes, want %d", len(n.queue), len(rest))
	}
	for i, w := range rest {
		if uint64(n.queue[i].Msg.ID) != w {
			t.Fatalf("queue[%d] = msg %d, want %d", i, n.queue[i].Msg.ID, w)
		}
	}

	// Drain the remainder: nothing is lost, per-sender order holds.
	var all []amcast.Envelope
	all = append(all, got...)
	for len(n.queue) > 0 {
		all = append(all, n.take(nil, false)...)
	}
	checkSenderFIFO(t, all, map[amcast.NodeID][]uint64{
		a: {1, 2, 5}, b: {3, 7}, c: {4, 6},
	})
}

// TestTakeHeadNeverStarves pins the fairness bound: even when fresh
// control envelopes (from senders with no earlier queued traffic) could
// fill every chunk, the payload at the queue head is consumed — an
// envelope at position p is processed within p takes, whatever arrives
// behind it.
func TestTakeHeadNeverStarves(t *testing.T) {
	payload := env(amcast.KindMsg, amcast.GroupNode(99), 1)
	queue := []amcast.Envelope{payload}
	for i := 0; i < 20; i++ {
		queue = append(queue, env(amcast.KindAck, amcast.GroupNode(amcast.GroupID(1+i%5)), uint64(100+i)))
	}
	n := takeNode(4, queue...)
	got := n.take(nil, false)
	if uint64(got[0].Msg.ID) != 1 {
		t.Fatalf("payload head not selected under control flood: chunk %v", got)
	}
}

// TestTakePlainWhenUnderBatch verifies the fast path: a queue that fits
// one chunk is popped in arrival order, no permutation.
func TestTakePlainWhenUnderBatch(t *testing.T) {
	a, b := amcast.GroupNode(1), amcast.GroupNode(2)
	n := takeNode(8,
		env(amcast.KindMsg, a, 1),
		env(amcast.KindAck, b, 2),
		env(amcast.KindMsg, b, 3),
	)
	got := n.take(nil, false)
	for i, w := range []uint64{1, 2, 3} {
		if uint64(got[i].Msg.ID) != w {
			t.Fatalf("take[%d] = msg %d, want %d", i, got[i].Msg.ID, w)
		}
	}
}

// TestTakePriorityRandomFIFO drives many random mixed backlogs through
// repeated takes and asserts completeness plus per-sender FIFO — the
// safety contract of the drain, whatever the interleaving.
func TestTakePriorityRandomFIFO(t *testing.T) {
	senders := []amcast.NodeID{amcast.GroupNode(1), amcast.GroupNode(2), amcast.GroupNode(3), amcast.ClientNode(0)}
	kinds := []amcast.Kind{amcast.KindMsg, amcast.KindAck, amcast.KindNotif, amcast.KindTS, amcast.KindRequest}
	rng := uint64(12345)
	next := func(n uint64) uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng % n }
	for round := 0; round < 50; round++ {
		var queue []amcast.Envelope
		want := make(map[amcast.NodeID][]uint64)
		total := 20 + int(next(60))
		for i := 0; i < total; i++ {
			from := senders[next(uint64(len(senders)))]
			k := kinds[next(uint64(len(kinds)))]
			id := uint64(round*1000 + i + 1)
			queue = append(queue, env(k, from, id))
			want[from] = append(want[from], id)
		}
		n := takeNode(1+int(next(7)), queue...)
		var all []amcast.Envelope
		for len(n.queue) > 0 {
			all = append(all, n.take(nil, false)...)
		}
		if len(all) != total {
			t.Fatalf("round %d: drained %d envelopes, want %d", round, len(all), total)
		}
		checkSenderFIFO(t, all, want)
	}
}

func checkSenderFIFO(t *testing.T, got []amcast.Envelope, want map[amcast.NodeID][]uint64) {
	t.Helper()
	seen := make(map[amcast.NodeID][]uint64)
	for _, e := range got {
		seen[e.From] = append(seen[e.From], uint64(e.Msg.ID))
	}
	for from, ids := range want {
		g := seen[from]
		if len(g) != len(ids) {
			t.Fatalf("sender %s: processed %d envelopes, want %d", from, len(g), len(ids))
		}
		for i := range ids {
			if g[i] != ids[i] {
				t.Fatalf("sender %s: FIFO broken at %d: processed %v, queued %v", from, i, g, ids)
			}
		}
	}
}
