package runtime

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/prototest"
)

// TestAllocBudgetBatcher pins the borrow-only hand-off on the sending
// side: once every destination has been sent to, Add + FlushAll allocate
// nothing — the per-destination buffers, the flush order and the
// control marks are all reused, whatever mix of size-cap and chunk-end
// flushes the chunk produces.
func TestAllocBudgetBatcher(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	sent := 0
	b := NewBatcher(func(to amcast.NodeID, envs []amcast.Envelope) { sent += len(envs) }, 4)
	msg := amcast.Message{ID: amcast.NewMsgID(0, 1), Dst: []amcast.GroupID{1, 2}}
	chunk := func() {
		for i := 0; i < 6; i++ { // group 1 hits the cap once, then parks two
			b.Add(amcast.GroupNode(1), amcast.Envelope{Kind: amcast.KindMsg, Msg: msg})
		}
		b.Add(amcast.GroupNode(2), amcast.Envelope{Kind: amcast.KindAck, Msg: msg.Header()})
		b.Add(amcast.ClientNode(0), amcast.Envelope{Kind: amcast.KindReply, Msg: msg.Header()})
		b.FlushAll()
	}
	chunk() // first contact with each destination allocates its buffer
	if n := testing.AllocsPerRun(100, chunk); n != 0 {
		t.Fatalf("steady-state Add+FlushAll allocates %v per chunk, want 0", n)
	}
	if want := 102 * 8; sent != want {
		t.Fatalf("sent %d envelopes, want %d", sent, want)
	}
	if s := b.Stats(); s.SizeFlushes != 102 || s.ChunkFlushes != 3*102 {
		t.Fatalf("stats %+v: want one size flush and three chunk flushes per chunk", s)
	}
}
