package transport

import (
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/prototest"
)

func seqEnv(seq uint64) amcast.Envelope {
	return amcast.Envelope{Kind: amcast.KindRequest, Msg: amcast.Message{ID: amcast.NewMsgID(0, seq)}}
}

// TestEnvQueueBoundAndOrder checks the queue's three promises: pop
// hands over everything queued, in push order; a push finds room only
// while fewer than limit envelopes are queued (counting envelopes, not
// batches, and not the ones already lent to the consumer); close lets
// the consumer drain what is queued before pop reports the end.
func TestEnvQueueBoundAndOrder(t *testing.T) {
	q := newEnvQueue(4)
	q.push([]amcast.Envelope{seqEnv(1), seqEnv(2), seqEnv(3)})
	batch := []amcast.Envelope{seqEnv(4), seqEnv(5)}
	q.push(batch)         // 3 < 4: admitted whole, like the batch queue it replaces
	batch[0] = seqEnv(99) // the pusher keeps its slice

	blocked := make(chan bool)
	go func() { blocked <- q.push([]amcast.Envelope{seqEnv(6)}) }()
	select {
	case <-blocked:
		t.Fatal("push found room in a full queue")
	case <-time.After(20 * time.Millisecond):
	}
	got := q.pop()
	if len(got) != 5 {
		t.Fatalf("pop returned %d envelopes, want all 5 queued", len(got))
	}
	for i, env := range got {
		if env.Msg.ID.Seq() != uint64(i+1) {
			t.Fatalf("envelope %d has seq %d", i, env.Msg.ID.Seq())
		}
	}
	if !<-blocked {
		t.Fatal("push failed on an open queue")
	}
	q.close()
	if q.push([]amcast.Envelope{seqEnv(7)}) {
		t.Fatal("push succeeded on a closed queue")
	}
	if got := q.pop(); len(got) != 1 || got[0].Msg.ID.Seq() != 6 {
		t.Fatalf("close dropped the queued envelope: %v", got)
	}
	if got := q.pop(); got != nil {
		t.Fatalf("pop after drain returned %v", got)
	}
}

// TestAllocBudgetEnvQueue pins the borrow-only hand-off on the
// receiving side: once both buffers have grown to the traffic, push +
// pop allocate nothing.
func TestAllocBudgetEnvQueue(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	q := newEnvQueue(mailboxDepth)
	batch := []amcast.Envelope{seqEnv(1), seqEnv(2), seqEnv(3)}
	cycle := func() {
		q.push(batch)
		q.push(batch[:1])
		if got := q.pop(); len(got) != 4 {
			t.Fatalf("pop returned %d envelopes", len(got))
		}
	}
	cycle()
	cycle() // both buffers have now been the fill side once
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state push+pop allocates %v per cycle, want 0", n)
	}
}
