package transport

import (
	"math"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/prototest"
	"flexcast/internal/runtime"
)

// anyPortBook lets ListenTCP pick every node's port: no port is
// released between choosing and binding it.
func anyPortBook(ids ...amcast.NodeID) AddrBook {
	book := make(AddrBook, len(ids))
	for _, id := range ids {
		book[id] = "127.0.0.1:0"
	}
	return book
}

// linkEnv is envelope seq of the link from sender from.
func linkEnv(from amcast.NodeID, seq uint64) amcast.Envelope {
	return amcast.Envelope{Kind: amcast.KindAck, From: from,
		Msg: amcast.Message{ID: amcast.NewMsgID(0, seq), Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1}}}
}

// linkRecorder is a handler shared by many links: it checks, per
// sender, that envelopes arrive exactly once and in send order.
type linkRecorder struct {
	mu   sync.Mutex
	next map[amcast.NodeID]uint64
	err  string
}

func (r *linkRecorder) handle(envs []amcast.Envelope) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, env := range envs {
		want := r.next[env.From] + 1
		if got := env.Msg.ID.Seq(); got != want && r.err == "" {
			r.err = env.From.String() + ": envelope out of order, lost or duplicated"
		}
		r.next[env.From] = want
	}
}

func (r *linkRecorder) total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(0)
	for _, k := range r.next {
		n += k
	}
	return n
}

// sendLinks runs one goroutine per sender, each sending batches of
// growing size over its own link until it sent perLink envelopes, and
// reuses (then poisons) its batch buffer after every send, as the
// runtime's batcher does.
func sendLinks(senders []amcast.NodeID, perLink int, send func(from amcast.NodeID, envs []amcast.Envelope)) {
	var wg sync.WaitGroup
	for _, from := range senders {
		wg.Add(1)
		go func(from amcast.NodeID) {
			defer wg.Done()
			buf := make([]amcast.Envelope, 0, 8)
			for seq := 1; seq <= perLink; {
				buf = buf[:0]
				for k := 0; k <= seq%8 && seq <= perLink; k++ {
					buf = append(buf, linkEnv(from, uint64(seq)))
					seq++
				}
				send(from, buf)
				prototest.Poison(buf)
			}
		}(from)
	}
	wg.Wait()
}

// TestConcurrentLinksKeepPerLinkOrder drives one handler from many links
// at once — in memory every sender's goroutine calls it, over TCP every
// connection's reader does — and checks the handler contract: per-link
// order, no envelope lost or duplicated. Run it under -race.
func TestConcurrentLinksKeepPerLinkOrder(t *testing.T) {
	const links, perLink = 8, 2000
	senders := make([]amcast.NodeID, links)
	for i := range senders {
		senders[i] = amcast.GroupNode(amcast.GroupID(i + 2))
	}
	check := func(t *testing.T, r *linkRecorder) {
		t.Helper()
		waitFor(t, 10*time.Second, func() bool { return r.total() == links*perLink })
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.err != "" {
			t.Fatal(r.err)
		}
		for _, from := range senders {
			if r.next[from] != perLink {
				t.Fatalf("%s: %d of %d envelopes arrived", from, r.next[from], perLink)
			}
		}
	}

	t.Run("inmem", func(t *testing.T) {
		net := NewInMemNet()
		defer net.Close()
		r := &linkRecorder{next: make(map[amcast.NodeID]uint64)}
		if err := net.AddBatchHandler(amcast.GroupNode(1), r.handle); err != nil {
			t.Fatal(err)
		}
		sendLinks(senders, perLink, func(from amcast.NodeID, envs []amcast.Envelope) {
			net.SendBatch(from, amcast.GroupNode(1), envs)
		})
		check(t, r)
	})

	t.Run("tcp", func(t *testing.T) {
		ids := append([]amcast.NodeID{amcast.GroupNode(1)}, senders...)
		mesh, err := ListenTCP(anyPortBook(ids...), ids...)
		if err != nil {
			t.Fatal(err)
		}
		defer mesh.Close()
		r := &linkRecorder{next: make(map[amcast.NodeID]uint64)}
		if _, err := mesh.Attach(amcast.GroupNode(1), r.handle); err != nil {
			t.Fatal(err)
		}
		sends := make(map[amcast.NodeID]SendFunc)
		for _, from := range senders {
			if sends[from], err = mesh.Attach(from, func([]amcast.Envelope) {}); err != nil {
				t.Fatal(err)
			}
		}
		sendLinks(senders, perLink, func(from amcast.NodeID, envs []amcast.Envelope) {
			sends[from](amcast.GroupNode(1), envs)
		})
		check(t, r)
	})
}

// TestTCPReaderBufferIsScrubbed checks that the TCP reader lends its
// decode buffer through the Scrub hook: with loans poisoned, a handler
// that keeps the slice finds the envelopes it kept overwritten with
// poison once its call has returned.
func TestTCPReaderBufferIsScrubbed(t *testing.T) {
	prototest.PoisonLoans(t, &Scrub)
	a, b := amcast.GroupNode(1), amcast.GroupNode(2)
	book := anyPortBook(a, b)
	var kept []amcast.Envelope
	seen := make(chan []amcast.Envelope, 1)
	nb, err := NewTCPBatchNode(b, book, func(envs []amcast.Envelope) {
		if kept == nil {
			kept = envs // the bug under test: keeping a borrowed slice
			return
		}
		// Same reader goroutine: the first call's Scrub has run.
		seen <- append([]amcast.Envelope(nil), kept[:2]...)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	book[b] = nb.Addr()
	na, err := NewTCPBatchNode(a, book, func([]amcast.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	if err := na.SendBatch(b, []amcast.Envelope{linkEnv(a, 1), linkEnv(a, 2)}); err != nil {
		t.Fatal(err)
	}
	if err := na.Send(b, linkEnv(a, 3)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-seen:
		// The one-envelope frame reused slot 0; slot 1 holds the poison
		// the first call's loan ended with.
		if got[0].Msg.ID.Seq() != 3 {
			t.Fatalf("slot 0 holds %s, want the second frame's envelope", got[0].Msg.ID)
		}
		if got[1].Msg.ID != math.MaxUint64-1 {
			t.Fatalf("slot 1 holds %s after the loan ended, want poison", got[1].Msg.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second frame never arrived")
	}
}

// TestInMemAttachStartsNoGoroutine checks that the in-memory transport
// runs handlers on the senders' goroutines: attaching nodes starts none.
func TestInMemAttachStartsNoGoroutine(t *testing.T) {
	net := NewInMemNet()
	defer net.Close()
	before := goruntime.NumGoroutine()
	for i := 0; i < 64; i++ {
		if _, err := net.Attach(amcast.GroupNode(amcast.GroupID(i+1)), func([]amcast.Envelope) {}); err != nil {
			t.Fatal(err)
		}
	}
	// Earlier tests' readers may still be exiting: the count must not rise.
	if after := goruntime.NumGoroutine(); after > before {
		t.Fatalf("attaching 64 nodes took the goroutine count from %d to %d", before, after)
	}
}

// gatedEngine blocks every step until its gate opens, so the hosting
// node's queue fills and its senders block in Submit.
type gatedEngine struct {
	g    amcast.GroupID
	gate chan struct{}
}

func (e *gatedEngine) Group() amcast.GroupID { return e.g }

func (e *gatedEngine) OnEnvelope(amcast.Envelope) []amcast.Output {
	<-e.gate
	return nil
}

func (e *gatedEngine) TakeDeliveries() []amcast.Delivery { return nil }

// TestCloseWithSenderBlockedInSubmit closes a transport while its node's
// queue is full and a sender is blocked in Submit: Close returns, and
// once the node is closed too, every goroutine the test started — the
// sender, the node, the transport's — is gone.
func TestCloseWithSenderBlockedInSubmit(t *testing.T) {
	client := amcast.ClientNode(0)
	for _, tc := range []struct {
		name string
		make func(t *testing.T) runtime.Net
	}{
		{"inmem", func(t *testing.T) runtime.Net { return NewInMemNet() }},
		{"tcp", func(t *testing.T) runtime.Net {
			ids := []amcast.NodeID{amcast.GroupNode(1), client}
			mesh, err := ListenTCP(anyPortBook(ids...), ids...)
			if err != nil {
				t.Fatal(err)
			}
			return mesh
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goruntime.NumGoroutine()
			net := tc.make(t)
			eng := &gatedEngine{g: 1, gate: make(chan struct{})}
			node, err := runtime.Host(net, eng, runtime.Config{MaxBatch: 1, QueueDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			send, err := net.Attach(client, func([]amcast.Envelope) {})
			if err != nil {
				t.Fatal(err)
			}
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				for seq := uint64(1); seq <= 16; seq++ {
					send(amcast.GroupNode(1), []amcast.Envelope{linkEnv(client, seq)})
				}
			}()
			// One envelope is in the gated step, four fill the queue; the
			// next Submit blocks (in memory the sender, over TCP the reader).
			waitFor(t, 5*time.Second, func() bool { return node.QueueLen() >= 4 })
			closed := make(chan struct{})
			go func() { net.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return while a sender was blocked in Submit")
			}
			close(eng.gate)
			node.Close()
			<-sent
			waitFor(t, 5*time.Second, func() bool { return goruntime.NumGoroutine() <= before })
		})
	}
}
