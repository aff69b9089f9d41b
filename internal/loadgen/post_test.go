package loadgen

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/prototest"
	"flexcast/internal/runtime"
)

// postClient is a client process whose requests all go to group 1
// through a batcher over send: enough of a clientProc to post and to
// expire, with no run behind it.
func postClient(send runtime.SendBatchFunc) *clientProc {
	entry := []amcast.NodeID{amcast.GroupNode(1)}
	return &clientProc{
		id:      amcast.ClientNode(0),
		batcher: runtime.NewBatcher(send, 64),
		calls:   client.NewCalls[txState](0, func(amcast.Message) []amcast.NodeID { return entry }),
	}
}

// postMsg is poster p's i-th request.
func postMsg(p, i int) amcast.Message {
	return amcast.Message{ID: amcast.NewMsgID(0, uint64(p)<<24|uint64(i)), Sender: amcast.ClientNode(0),
		Dst: []amcast.GroupID{1}}
}

// TestPostSendsInOrder races 16 posters of 2 000 requests each through
// one client's post: every request is sent exactly once, each poster's
// in post order, and nothing is left in the batcher once every poster
// has returned.
func TestPostSendsInOrder(t *testing.T) {
	const posters, posts = 16, 2000
	var sent []amcast.MsgID // appended under the batcher's lock
	c := postClient(func(_ amcast.NodeID, envs []amcast.Envelope) {
		for _, env := range envs {
			sent = append(sent, env.Msg.ID)
		}
	})
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= posts; i++ {
				c.post(postMsg(p, i))
			}
		}(p)
	}
	wg.Wait()
	if len(sent) != posters*posts {
		t.Fatalf("sent %d requests, posted %d", len(sent), posters*posts)
	}
	last := make([]int, posters)
	for _, id := range sent {
		p, i := int(id.Seq()>>24), int(id.Seq()&(1<<24-1))
		if i != last[p]+1 {
			t.Fatalf("poster %d: request %d sent after %d (duplicate, lost or reordered)", p, i, last[p])
		}
		last[p] = i
	}
}

// TestPostReturnsOnceSent blocks one post inside its send and posts
// another request meanwhile: the second post does not return while the
// send it queued behind is blocked, and once it returns its request has
// gone out after the first — a post never leaves its request stranded
// in the batcher, so a session stopping after its last post strands
// nothing.
func TestPostReturnsOnceSent(t *testing.T) {
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	var sent []amcast.MsgID // appended under the batcher's lock
	c := postClient(func(_ amcast.NodeID, envs []amcast.Envelope) {
		select {
		case entered <- struct{}{}:
			<-gate // the first send blocks until released
		default:
		}
		for _, env := range envs {
			sent = append(sent, env.Msg.ID)
		}
	})
	first, second := postMsg(0, 1), postMsg(1, 1)
	go c.post(first)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("a post never handed its request to the transport")
	}
	posted := make(chan struct{})
	go func() {
		c.post(second)
		close(posted)
	}()
	select {
	case <-posted:
		close(gate)
		t.Fatal("a post returned while the send ahead of it was blocked")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-posted:
	case <-time.After(5 * time.Second):
		t.Fatal("a post queued behind a released send never returned")
	}
	if len(sent) != 2 || sent[0] != first.ID || sent[1] != second.ID {
		t.Fatalf("sent %v by the time the second post returned, want [%s %s]", sent, first.ID, second.ID)
	}
}

// TestAllocBudgetPost pins post at zero allocations per request in
// steady state: the batcher's per-destination buffer is reused.
func TestAllocBudgetPost(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	c := postClient(func(amcast.NodeID, []amcast.Envelope) {})
	m := postMsg(0, 1)
	c.post(m)
	c.post(m)
	if n := testing.AllocsPerRun(1000, func() { c.post(m) }); n != 0 {
		t.Fatalf("a post allocates %v, want 0", n)
	}
}

// TestExpireOnlyStaleWaitedCalls sweeps a table holding a waited-on call
// past the timeout, a waited-on call inside it and an open-loop call
// past it: only the first is abandoned — marked timed out, its waiter
// released — and a reply landing afterwards is Stale and closes nothing
// twice.
func TestExpireOnlyStaleWaitedCalls(t *testing.T) {
	c := postClient(func(amcast.NodeID, []amcast.Envelope) {})
	now := time.Now()
	open := func(i int, issued time.Time, waited bool) *client.Call[txState] {
		tx := txState{issued: issued}
		if waited {
			tx.done = make(chan struct{})
		}
		return c.calls.Issue(postMsg(0, i), tx)
	}
	old := open(1, now.Add(-time.Minute), true)
	young := open(2, now, true)
	openLoop := open(3, now.Add(-time.Minute), false)

	c.expire(now.Add(-time.Second))
	select {
	case <-old.Data.done:
	default:
		t.Fatal("a waited-on call past the timeout was not released")
	}
	if !old.Data.timedOut || c.calls.Open(old.Msg.ID) {
		t.Fatalf("expired call: timedOut=%v, still open=%v", old.Data.timedOut, c.calls.Open(old.Msg.ID))
	}
	select {
	case <-young.Data.done:
		t.Fatal("a waited-on call inside the timeout was released")
	default:
	}
	if young.Data.timedOut || !c.calls.Open(young.Msg.ID) || !c.calls.Open(openLoop.Msg.ID) {
		t.Fatal("the sweep abandoned a call it must leave open")
	}

	reply := amcast.Envelope{Kind: amcast.KindReply, From: amcast.GroupNode(1), Msg: old.Msg}
	c.onReplies([]amcast.Envelope{reply}) // would panic closing done twice
	c.mu.Lock()
	_, progress := c.calls.Reply(reply)
	c.mu.Unlock()
	if progress != client.Stale {
		t.Fatalf("a reply after expiry progressed %v, want Stale", progress)
	}
	c.expire(now.Add(time.Hour)) // nothing waited-on is left to release twice
}

// muteNet drops every batch group 1 sends to a client: a group that
// orders and executes but never replies.
type muteNet struct{ runtime.Net }

func (n muteNet) Attach(id amcast.NodeID, h func([]amcast.Envelope)) (func(amcast.NodeID, []amcast.Envelope), error) {
	send, err := n.Net.Attach(id, h)
	if id != amcast.GroupNode(1) || err != nil {
		return send, err
	}
	return func(to amcast.NodeID, envs []amcast.Envelope) {
		if !to.IsClient() {
			send(to, envs)
		}
	}, nil
}

// TestRunExpiresUnansweredTx runs against a group that never replies:
// the run fails within Timeout plus one sweep period of the last
// transaction it could have issued, naming the transaction.
func TestRunExpiresUnansweredTx(t *testing.T) {
	wrapNet = func(n runtime.Net) runtime.Net { return muteNet{n} }
	t.Cleanup(func() { wrapNet = func(n runtime.Net) runtime.Net { return n } })
	cfg := shortCfg()
	cfg.Groups = 4
	cfg.Warmup, cfg.Duration = 50*time.Millisecond, 100*time.Millisecond
	cfg.Timeout = 800 * time.Millisecond
	cfg.FlushEvery = -1 // no flush client: its multicasts would expire later
	start := time.Now()
	_, err := Run(cfg)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a run whose group never replies succeeded")
	}
	if !strings.Contains(err.Error(), "timed out") || !regexp.MustCompile(`tx \S+ to \[`).MatchString(err.Error()) {
		t.Fatalf("error does not name the timed-out tx: %v", err)
	}
	bound := cfg.Warmup + cfg.Duration + cfg.Timeout + cfg.Timeout/8 + 300*time.Millisecond
	if elapsed < cfg.Timeout || elapsed > bound {
		t.Fatalf("run failed after %v, want within [%v, %v]", elapsed, cfg.Timeout, bound)
	}
}
