package runtime

import (
	"reflect"
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

// TestAllocBudgetBatcherFanOut widens the budget to a node's full fan-out
// — twelve groups and two clients, added in an order that interleaves
// payload and control destinations — and checks what the flush order
// promises on every chunk: control-bearing destinations first, each
// phase in first-Add order. The per-destination state is a slice the
// batcher scans, so nothing in it is a map.
func TestAllocBudgetBatcherFanOut(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	for i, typ := 0, reflect.TypeOf(Batcher{}); i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Map {
			t.Fatalf("Batcher.%s is a map", typ.Field(i).Name)
		}
	}
	sends := make([]amcast.NodeID, 0, 64)
	b := NewBatcher(func(to amcast.NodeID, envs []amcast.Envelope) { sends = append(sends, to) }, 64)
	msg := amcast.Message{ID: amcast.NewMsgID(0, 1), Dst: []amcast.GroupID{1, 2}}
	gn, cn := amcast.GroupNode, amcast.ClientNode
	want := []amcast.NodeID{gn(12), gn(9), cn(1), cn(0), gn(6), gn(3), gn(11), gn(10), gn(8), gn(7), gn(5), gn(4), gn(2), gn(1)}
	chunk := func() {
		sends = sends[:0]
		for g := amcast.GroupID(12); g >= 1; g-- {
			b.Add(amcast.GroupNode(g), amcast.Envelope{Kind: amcast.KindMsg, Msg: msg})
			if g%3 == 0 {
				b.Add(amcast.GroupNode(g), amcast.Envelope{Kind: amcast.KindAck, Msg: msg.Header()})
			}
			if g == 7 {
				b.Add(amcast.ClientNode(1), amcast.Envelope{Kind: amcast.KindReply, Msg: msg.Header()})
				b.Add(amcast.ClientNode(0), amcast.Envelope{Kind: amcast.KindReply, Msg: msg.Header()})
			}
		}
		b.FlushAll()
	}
	chunk()
	if n := testing.AllocsPerRun(100, chunk); n != 0 {
		t.Fatalf("steady-state Add+FlushAll over 14 destinations allocates %v per chunk, want 0", n)
	}
	if !reflect.DeepEqual(sends, want) {
		t.Fatalf("flush order %v, want %v", sends, want)
	}
}
