package runtime_test

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
	"flexcast/internal/runtime"
	"flexcast/internal/trace"
	"flexcast/internal/transport"
)

// deployment wires a FlexCast group set over the in-memory transport
// with one runtime.Node per group, plus a client handler collecting
// replies.
type deployment struct {
	ov    *overlay.CDAG
	net   *transport.InMemNet
	nodes []*runtime.Node

	mu      sync.Mutex
	rec     *trace.Recorder
	recErr  error
	replies map[amcast.MsgID]map[amcast.GroupID]bool
	waiters map[amcast.MsgID]chan struct{}
}

func newDeployment(t *testing.T, groups []amcast.GroupID, maxBatch int) *deployment {
	t.Helper()
	// Every hand-off between batchers, transport and nodes is poisoned
	// the moment its call returns: nothing here may keep a lent slice.
	prototest.PoisonLoans(t, &runtime.Scrub, &transport.Scrub)
	d := &deployment{
		ov:      overlay.MustCDAG(groups),
		net:     transport.NewInMemNet(),
		rec:     trace.NewRecorder(),
		replies: make(map[amcast.MsgID]map[amcast.GroupID]bool),
		waiters: make(map[amcast.MsgID]chan struct{}),
	}
	for _, g := range groups {
		eng := core.MustNew(core.Config{Group: g, Overlay: d.ov})
		id := amcast.GroupNode(g)
		send := func(to amcast.NodeID, envs []amcast.Envelope) { d.net.SendBatch(id, to, envs) }
		n := runtime.NewNode(eng, send, runtime.Config{
			MaxBatch: maxBatch,
			OnDeliver: func(del amcast.Delivery) {
				d.mu.Lock()
				defer d.mu.Unlock()
				if err := d.rec.OnDeliver(del); err != nil && d.recErr == nil {
					d.recErr = err
				}
			},
		})
		d.nodes = append(d.nodes, n)
		if err := d.net.AddBatchHandler(n.ID(), n.Submit); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.net.AddBatchHandler(amcast.ClientNode(0), d.onClientBatch); err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *deployment) onClientBatch(envs []amcast.Envelope) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, env := range envs {
		if env.Kind != amcast.KindReply {
			continue
		}
		got, ok := d.replies[env.Msg.ID]
		if !ok {
			continue
		}
		got[env.From.Group()] = true
		if len(got) == len(env.Msg.Dst) {
			if w := d.waiters[env.Msg.ID]; w != nil {
				close(w)
				delete(d.waiters, env.Msg.ID)
			}
		}
	}
}

// multicast issues one message and returns a channel closed when every
// destination has replied.
func (d *deployment) multicast(m amcast.Message) <-chan struct{} {
	done := make(chan struct{})
	d.mu.Lock()
	d.rec.OnMulticast(m)
	d.replies[m.ID] = make(map[amcast.GroupID]bool, len(m.Dst))
	d.waiters[m.ID] = done
	d.mu.Unlock()
	lca := d.ov.Lca(m.Dst)
	d.net.SendBatch(m.Sender, amcast.GroupNode(lca), []amcast.Envelope{{
		Kind: amcast.KindRequest, From: m.Sender, Msg: m,
	}})
	return done
}

func (d *deployment) close() {
	d.net.Close()
	for _, n := range d.nodes {
		n.Close()
	}
}

// TestNodeEndToEnd drives concurrent multicasts through the batched
// runtime at several batch settings and checks the full multicast
// specification on the recorded run.
func TestNodeEndToEnd(t *testing.T) {
	for _, maxBatch := range []int{1, 4, 64} {
		maxBatch := maxBatch
		t.Run(fmt.Sprintf("batch=%d", maxBatch), func(t *testing.T) {
			groups := []amcast.GroupID{1, 2, 3, 4}
			d := newDeployment(t, groups, maxBatch)
			defer d.close()

			const clients, msgs = 4, 40
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < msgs; i++ {
						dst := []amcast.GroupID{groups[i%len(groups)], groups[(i+c)%len(groups)]}
						m := amcast.Message{
							ID:      amcast.NewMsgID(0, uint64(c*msgs+i+1)),
							Sender:  amcast.ClientNode(0),
							Dst:     amcast.NormalizeDst(dst),
							Payload: []byte("e2e"),
						}
						select {
						case <-d.multicast(m):
						case <-time.After(10 * time.Second):
							t.Errorf("client %d message %d timed out", c, i)
							return
						}
					}
				}(c)
			}
			wg.Wait()

			d.mu.Lock()
			defer d.mu.Unlock()
			if d.recErr != nil {
				t.Fatal(d.recErr)
			}
			if err := d.rec.CheckAll(true); err != nil {
				t.Fatal(err)
			}
			if d.rec.Deliveries() == 0 {
				t.Fatal("nothing delivered")
			}
			var stats runtime.BatcherStats
			for _, n := range d.nodes {
				s := n.Stats()
				stats.Batches += s.Batches
				stats.Envelopes += s.Envelopes
			}
			if stats.Envelopes == 0 {
				t.Fatal("no envelopes sent through the batcher")
			}
			if maxBatch == 1 && stats.Batches != stats.Envelopes {
				t.Fatalf("batch=1 must send per envelope: %d batches, %d envelopes",
					stats.Batches, stats.Envelopes)
			}
		})
	}
}

// TestBatcherCapFlush checks that a destination's batch is sent the
// moment it reaches the cap, envelopes in Add order. The send function
// keeps the batches, so it copies them: the batcher refills its buffer
// as soon as the send returns.
func TestBatcherCapFlush(t *testing.T) {
	var mu sync.Mutex
	var sent [][]amcast.Envelope
	b := runtime.NewBatcher(func(to amcast.NodeID, envs []amcast.Envelope) {
		mu.Lock()
		sent = append(sent, append([]amcast.Envelope(nil), envs...))
		mu.Unlock()
	}, 3)

	to := amcast.GroupNode(2)
	for seq := uint64(1); seq <= 7; seq++ {
		b.Add(to, amcast.Envelope{Kind: amcast.KindRequest,
			Msg: amcast.Message{ID: amcast.NewMsgID(0, seq), Dst: []amcast.GroupID{2}}})
	}
	mu.Lock()
	if len(sent) != 2 || len(sent[0]) != 3 || len(sent[1]) != 3 {
		t.Fatalf("cap flushes wrong: %d sends", len(sent))
	}
	mu.Unlock()
	b.FlushAll()
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 3 || len(sent[2]) != 1 {
		t.Fatalf("FlushAll did not send the remainder: %d sends", len(sent))
	}
	seq := uint64(1)
	for _, batch := range sent {
		for _, env := range batch {
			if env.Msg.ID.Seq() != seq {
				t.Fatalf("order violated: got seq %d, want %d", env.Msg.ID.Seq(), seq)
			}
			seq++
		}
	}
	s := b.Stats()
	if s.Batches != 3 || s.Envelopes != 7 || s.MaxBatch != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestBatcherControlPriority checks that FlushAll sends batches
// carrying control envelopes (ACK/NOTIF/TS/REPLY) before payload-only
// batches, across destinations, while never reordering within a
// destination (per-link FIFO).
func TestBatcherControlPriority(t *testing.T) {
	var sent []struct {
		to   amcast.NodeID
		envs []amcast.Envelope
	}
	b := runtime.NewBatcher(func(to amcast.NodeID, envs []amcast.Envelope) {
		sent = append(sent, struct {
			to   amcast.NodeID
			envs []amcast.Envelope
		}{to, append([]amcast.Envelope(nil), envs...)})
	}, 16)

	msg := amcast.Message{ID: amcast.NewMsgID(0, 1), Dst: []amcast.GroupID{2, 3}}
	// Payload-only batches to groups 1 and 2 queued first, then a mixed
	// batch (payload + ack) to group 3 and a pure ack to group 4.
	b.Add(amcast.GroupNode(1), amcast.Envelope{Kind: amcast.KindMsg, Msg: msg})
	b.Add(amcast.GroupNode(2), amcast.Envelope{Kind: amcast.KindMsg, Msg: msg})
	b.Add(amcast.GroupNode(3), amcast.Envelope{Kind: amcast.KindMsg, Msg: msg})
	b.Add(amcast.GroupNode(3), amcast.Envelope{Kind: amcast.KindAck, Msg: msg.Header()})
	b.Add(amcast.GroupNode(4), amcast.Envelope{Kind: amcast.KindAck, Msg: msg.Header()})
	b.FlushAll()

	if len(sent) != 4 {
		t.Fatalf("sends = %d, want 4", len(sent))
	}
	// Control-bearing destinations (3, then 4, in first-Add order) lead;
	// payload-only destinations (1, then 2) follow.
	wantOrder := []amcast.NodeID{amcast.GroupNode(3), amcast.GroupNode(4), amcast.GroupNode(1), amcast.GroupNode(2)}
	for i, want := range wantOrder {
		if sent[i].to != want {
			t.Fatalf("send %d went to %s, want %s", i, sent[i].to, want)
		}
	}
	// Group 3's batch keeps its internal Add order: MSG before ACK.
	if sent[0].envs[0].Kind != amcast.KindMsg || sent[0].envs[1].Kind != amcast.KindAck {
		t.Fatalf("within-destination order violated: %v %v", sent[0].envs[0].Kind, sent[0].envs[1].Kind)
	}
	if s := b.Stats(); s.ControlBatches != 2 {
		t.Fatalf("ControlBatches = %d, want 2", s.ControlBatches)
	}
	// A later flush with fresh payload-only traffic does not inherit
	// stale control flags.
	b.Add(amcast.GroupNode(3), amcast.Envelope{Kind: amcast.KindMsg, Msg: msg})
	b.FlushAll()
	if s := b.Stats(); s.ControlBatches != 2 {
		t.Fatalf("stale control flag: ControlBatches = %d, want 2", s.ControlBatches)
	}
}

// TestBatcherUnbatchedPassThrough checks the -batch=1 baseline: every
// Add is its own send.
func TestBatcherUnbatchedPassThrough(t *testing.T) {
	n := 0
	b := runtime.NewBatcher(func(to amcast.NodeID, envs []amcast.Envelope) {
		if len(envs) != 1 {
			t.Fatalf("unbatched send carried %d envelopes", len(envs))
		}
		n++
	}, 1)
	to := amcast.GroupNode(1)
	for i := 0; i < 5; i++ {
		b.Add(to, amcast.Envelope{Kind: amcast.KindRequest})
	}
	b.FlushAll() // no-op
	if n != 5 {
		t.Fatalf("sends = %d, want 5", n)
	}
}

// nodeGoroutines returns the headers ("goroutine N [...]") of the live
// goroutines a runtime.NewNode started. Goroutine ids are never reused,
// so the headers new in a later call are exactly the goroutines started
// in between, whatever earlier nodes' goroutines exited meanwhile.
func nodeGoroutines() map[string]bool {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 2)
	ids := map[string]bool{}
	for _, g := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(g, "created by flexcast/internal/runtime.NewNode") {
			header, _, _ := strings.Cut(g, "[")
			ids[header] = true
		}
	}
	return ids
}

// TestStaticNodeRunsNoTimer pins the goroutine and flush accounting: a
// node starts its worker only, and under load it sends every batch — a
// partially filled one under a cap it never reaches included — because
// the batch filled or the worker's chunk ended, never on a timer.
func TestStaticNodeRunsNoTimer(t *testing.T) {
	const senders, perSender = 4, 500
	var replies sync.WaitGroup
	replies.Add(senders * perSender)
	before := nodeGoroutines()
	n := runtime.NewNode(core.MustNew(core.Config{Group: 1, Overlay: overlay.MustCDAG([]amcast.GroupID{1})}),
		func(to amcast.NodeID, envs []amcast.Envelope) {
			for _, env := range envs {
				if env.Kind == amcast.KindReply {
					replies.Done()
				}
			}
		}, runtime.Config{MaxBatch: 1024})
	defer n.Close()
	started := 0
	for id := range nodeGoroutines() {
		if !before[id] {
			started++
		}
	}
	if started != 1 {
		t.Fatalf("node started %d goroutines, want 1 (worker)", started)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				from := amcast.ClientNode(s)
				n.Submit([]amcast.Envelope{{Kind: amcast.KindRequest, From: from,
					Msg: amcast.Message{ID: amcast.NewMsgID(s, uint64(i+1)), Sender: from, Dst: []amcast.GroupID{1}}}})
			}
		}(s)
	}
	wg.Wait()
	done := make(chan struct{})
	go func() { replies.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("replies below the batch cap were never sent")
	}
	if st := n.Stats(); st.Batches != st.SizeFlushes+st.ChunkFlushes || st.ChunkFlushes == 0 {
		t.Fatalf("node sent %d batches: %d on size, %d at chunk end; want every batch accounted for and some at chunk end",
			st.Batches, st.SizeFlushes, st.ChunkFlushes)
	}
}
