package transport

import (
	"testing"
	"time"

	"flexcast/amcast"
)

// copyingHandler is a BatchHandler that keeps what it is handed — so it
// copies: the transport reuses the slice once the call returns.
func copyingHandler(got chan<- []amcast.Envelope) BatchHandler {
	return func(envs []amcast.Envelope) { got <- append([]amcast.Envelope(nil), envs...) }
}

// expectLinkFIFO collects dispatches until want envelopes arrived and
// checks what the protocols rely on: every envelope arrives exactly
// once, in send order. How the transport groups them into handler
// calls is its own business.
func expectLinkFIFO(t *testing.T, got <-chan []amcast.Envelope, want int) {
	t.Helper()
	seq := uint64(0)
	for int(seq) < want {
		select {
		case envs := <-got:
			if len(envs) == 0 {
				t.Fatal("empty dispatch")
			}
			for _, env := range envs {
				seq++
				if env.Msg.ID.Seq() != seq {
					t.Fatalf("envelope %d: seq %d (FIFO broken)", seq, env.Msg.ID.Seq())
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d of %d envelopes", seq, want)
		}
	}
	select {
	case envs := <-got:
		t.Fatalf("%d envelopes beyond the %d sent", len(envs), want)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestTCPBatchFrameRoundTrip sends batches and single envelopes over a
// real TCP connection and checks that batch frames and single frames
// arrive complete and interleaved in send order.
func TestTCPBatchFrameRoundTrip(t *testing.T) {
	a := amcast.GroupNode(1)
	b := amcast.GroupNode(2)
	book := AddrBook{a: "127.0.0.1:0", b: "127.0.0.1:0"}

	got := make(chan []amcast.Envelope, 16)
	nb, err := NewTCPBatchNode(b, book, copyingHandler(got))
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	book[b] = nb.Addr()

	na, err := NewTCPBatchNode(a, book, func(envs []amcast.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()

	mkEnv := func(seq uint64) amcast.Envelope {
		return amcast.Envelope{
			Kind: amcast.KindRequest,
			From: a,
			Msg: amcast.Message{
				ID: amcast.NewMsgID(0, seq), Sender: amcast.ClientNode(0),
				Dst: []amcast.GroupID{2}, Payload: []byte{byte(seq)},
			},
		}
	}
	batch := []amcast.Envelope{mkEnv(1), mkEnv(2), mkEnv(3)}
	if err := na.SendBatch(b, batch); err != nil {
		t.Fatal(err)
	}
	if err := na.Send(b, mkEnv(4)); err != nil {
		t.Fatal(err)
	}
	if err := na.SendBatch(b, []amcast.Envelope{mkEnv(5)}); err != nil {
		t.Fatal(err)
	}
	expectLinkFIFO(t, got, 5)
}

// TestInMemBatchDispatch checks that SendBatch delivers the whole batch
// and preserves per-pair FIFO with Send, and that the sender may reuse
// its slice once SendBatch returns: the handler only borrowed it.
func TestInMemBatchDispatch(t *testing.T) {
	net := NewInMemNet()
	defer net.Close()

	got := make(chan []amcast.Envelope, 16)
	if err := net.AddBatchHandler(amcast.GroupNode(1), copyingHandler(got)); err != nil {
		t.Fatal(err)
	}

	env := func(seq uint64) amcast.Envelope {
		return amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(0),
			Msg: amcast.Message{ID: amcast.NewMsgID(0, seq), Dst: []amcast.GroupID{1}}}
	}
	batch := []amcast.Envelope{env(1), env(2)}
	net.SendBatch(amcast.ClientNode(0), amcast.GroupNode(1), batch)
	batch[0], batch[1] = env(98), env(99) // the sender's buffer, reused at once
	net.Send(amcast.ClientNode(0), amcast.GroupNode(1), env(3))
	expectLinkFIFO(t, got, 3)
}
