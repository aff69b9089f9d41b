package transport

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/runtime"
	"flexcast/internal/skeen"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// deliverLog collects deliveries thread-safely.
type deliverLog struct {
	mu   sync.Mutex
	seqs map[amcast.GroupID][]amcast.MsgID
}

func newDeliverLog() *deliverLog {
	return &deliverLog{seqs: make(map[amcast.GroupID][]amcast.MsgID)}
}

func (l *deliverLog) add(d amcast.Delivery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seqs[d.Group] = append(l.seqs[d.Group], d.Msg.ID)
}

func (l *deliverLog) seq(g amcast.GroupID) []amcast.MsgID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]amcast.MsgID(nil), l.seqs[g]...)
}

func (l *deliverLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.seqs {
		n += len(s)
	}
	return n
}

// hostInMem runs eng under the batched node runtime on net — the stack
// every in-process deployment (Cluster, loadgen) hosts engines with.
func hostInMem(t *testing.T, net *InMemNet, eng amcast.Engine, onDeliver func(amcast.Delivery)) {
	t.Helper()
	node, err := runtime.Host(net, eng, runtime.Config{OnDeliver: onDeliver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
}

// hostTCP runs eng under the batched node runtime on mesh, attached to
// the listener the mesh bound for its group.
func hostTCP(t *testing.T, eng amcast.Engine, mesh *TCPMesh, onDeliver func(amcast.Delivery)) {
	t.Helper()
	node, err := runtime.Host(mesh, eng, runtime.Config{OnDeliver: onDeliver})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
}

func msg(id uint64, dst ...amcast.GroupID) amcast.Message {
	return amcast.Message{
		ID:     amcast.MsgID(id),
		Sender: amcast.ClientNode(0),
		Dst:    amcast.NormalizeDst(dst),
	}
}

func TestInMemFlexCastThreeGroups(t *testing.T) {
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2, 3})
	net := NewInMemNet()
	defer net.Close()
	log := newDeliverLog()
	for _, g := range ov.Order() {
		eng := core.MustNew(core.Config{Group: g, Overlay: ov})
		hostInMem(t, net, eng, log.add)
	}
	var replies sync.Map
	if err := net.AddHandler(amcast.ClientNode(0), func(env amcast.Envelope) {
		if env.Kind == amcast.KindReply {
			replies.Store(fmt.Sprintf("%s-%d", env.Msg.ID, env.From), true)
		}
	}); err != nil {
		t.Fatal(err)
	}

	for i := uint64(1); i <= 5; i++ {
		m := msg(i, 1, 2, 3)
		net.Send(amcast.ClientNode(0), amcast.GroupNode(ov.Lca(m.Dst)),
			amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
	}
	waitFor(t, 5*time.Second, func() bool { return log.total() == 15 })

	want := []amcast.MsgID{1, 2, 3, 4, 5}
	for _, g := range ov.Order() {
		if got := log.seq(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("group %d delivered %v, want %v", g, got, want)
		}
	}
	// Every destination replied to the client.
	waitFor(t, 5*time.Second, func() bool {
		n := 0
		replies.Range(func(_, _ interface{}) bool { n++; return true })
		return n == 15
	})
}

func TestInMemDuplicateRegistration(t *testing.T) {
	net := NewInMemNet()
	defer net.Close()
	if err := net.AddHandler(amcast.ClientNode(0), func(amcast.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	if err := net.AddHandler(amcast.ClientNode(0), func(amcast.Envelope) {}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestInMemSendToUnknownNodeDropped(t *testing.T) {
	net := NewInMemNet()
	defer net.Close()
	// Must not panic or block.
	net.Send(amcast.ClientNode(0), amcast.GroupNode(9), amcast.Envelope{Kind: amcast.KindFwd})
}

func TestInMemCloseIdempotent(t *testing.T) {
	net := NewInMemNet()
	net.Close()
	net.Close()
	if err := net.AddHandler(amcast.ClientNode(0), func(amcast.Envelope) {}); err == nil {
		t.Fatal("registration after close accepted")
	}
}

// tcpBook binds a loopback listener for every id through ListenTCP,
// which picks free ports (":0") and keeps each listener until its node
// is attached: no port is released between choosing and serving it.
func tcpBook(t *testing.T, ids ...amcast.NodeID) *TCPMesh {
	t.Helper()
	mesh, err := ListenTCP(anyPortBook(ids...), ids...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mesh.Close)
	return mesh
}

// tcpNode starts a TCPNode for id on the listener mesh bound for it.
func tcpNode(t *testing.T, mesh *TCPMesh, id amcast.NodeID, h func(amcast.Envelope)) *TCPNode {
	t.Helper()
	mesh.mu.Lock()
	ln, ok := mesh.listeners[id]
	delete(mesh.listeners, id)
	mesh.mu.Unlock()
	if !ok {
		t.Fatalf("node %s has no listener in the mesh", id)
	}
	n := newTCPNodeOn(id, mesh.book, ln, perEnvelope(h))
	t.Cleanup(n.Close)
	return n
}

func TestTCPSkeenTwoGroups(t *testing.T) {
	groups := []amcast.GroupID{1, 2}
	ids := []amcast.NodeID{amcast.GroupNode(1), amcast.GroupNode(2), amcast.ClientNode(0)}
	mesh := tcpBook(t, ids...)

	log := newDeliverLog()
	for _, g := range groups {
		hostTCP(t, skeen.MustNew(skeen.Config{Group: g, Groups: groups}), mesh, log.add)
	}
	var replyCount sync.Map
	cl := tcpNode(t, mesh, amcast.ClientNode(0), func(env amcast.Envelope) {
		if env.Kind == amcast.KindReply {
			replyCount.Store(fmt.Sprintf("%s-%d", env.Msg.ID, env.From), true)
		}
	})

	for i := uint64(1); i <= 3; i++ {
		m := msg(i, 1, 2)
		for _, g := range m.Dst {
			if err := cl.Send(amcast.GroupNode(g),
				amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 10*time.Second, func() bool { return log.total() == 6 })
	if !reflect.DeepEqual(log.seq(1), log.seq(2)) {
		t.Fatalf("groups disagree: %v vs %v", log.seq(1), log.seq(2))
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	n := tcpNode(t, tcpBook(t, amcast.ClientNode(0)), amcast.ClientNode(0), func(amcast.Envelope) {})
	if err := n.Send(amcast.GroupNode(9), amcast.Envelope{Kind: amcast.KindFwd}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestTCPNodeNotInBook(t *testing.T) {
	if _, err := NewTCPNode(amcast.ClientNode(0), AddrBook{}, func(amcast.Envelope) {}); err == nil {
		t.Fatal("node without address accepted")
	}
}

func TestTCPCloseUnblocks(t *testing.T) {
	n := tcpNode(t, tcpBook(t, amcast.ClientNode(0)), amcast.ClientNode(0), func(amcast.Envelope) {})
	done := make(chan struct{})
	go func() {
		n.Close()
		n.Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	if err := n.Send(amcast.ClientNode(0), amcast.Envelope{Kind: amcast.KindFwd}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// deltaTap is a FlexCast engine that records which destinations each
// history delta it sends goes to.
type deltaTap struct {
	*core.Engine
	mu  *sync.Mutex
	dst map[*amcast.HistDelta][]amcast.NodeID
}

func (tp deltaTap) OnEnvelope(env amcast.Envelope) []amcast.Output {
	return tp.record(tp.Engine.OnEnvelope(env))
}

func (tp deltaTap) BatchStep(envs []amcast.Envelope) []amcast.Output {
	return tp.record(tp.Engine.BatchStep(envs))
}

func (tp deltaTap) record(outs []amcast.Output) []amcast.Output {
	tp.mu.Lock()
	for _, o := range outs {
		if o.Env.Hist != nil {
			tp.dst[o.Env.Hist] = append(tp.dst[o.Env.Hist], o.To)
		}
	}
	tp.mu.Unlock()
	return outs
}

// TestInMemFlexCastSharesFlushDeltas: after traffic addressed to groups
// 1 and 2, group 1's flush MSG to the ten groups above 2 — all at the
// same cursor — is one delta, which ten receiving nodes merge at once
// on their own goroutines. Nothing may write a delta it received: under
// -race a write is a reported race, and the deliveries must agree.
func TestInMemFlexCastSharesFlushDeltas(t *testing.T) {
	var groups []amcast.GroupID
	for g := amcast.GroupID(1); g <= 12; g++ {
		groups = append(groups, g)
	}
	ov := overlay.MustCDAG(groups)
	net := NewInMemNet()
	defer net.Close()
	log := newDeliverLog()
	var mu sync.Mutex
	sent := make(map[*amcast.HistDelta][]amcast.NodeID)
	for _, g := range groups {
		hostInMem(t, net, deltaTap{core.MustNew(core.Config{Group: g, Overlay: ov}), &mu, sent}, log.add)
	}
	if err := net.AddHandler(amcast.ClientNode(0), func(amcast.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	multicast := func(m amcast.Message) {
		net.Send(amcast.ClientNode(0), amcast.GroupNode(ov.Lca(m.Dst)), amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
	}
	const n = 20
	for i := uint64(1); i <= n; i++ {
		multicast(msg(i, 1, 2))
	}
	waitFor(t, 5*time.Second, func() bool { return log.total() == 2*n })
	flush := msg(1000, groups...)
	flush.Flags = amcast.FlagFlush
	multicast(flush)
	for i := uint64(n + 1); i <= 2*n; i++ {
		multicast(msg(i, amcast.GroupID(1+i%3), amcast.GroupID(4+i%9)))
	}
	waitFor(t, 5*time.Second, func() bool { return log.total() == 2*n+len(groups)+2*n })

	mu.Lock()
	shared := 0
	for _, to := range sent {
		if len(to) > 1 {
			shared++
		}
	}
	mu.Unlock()
	if shared == 0 {
		t.Fatal("no delta went to more than one destination")
	}
	for _, g := range groups {
		if got := log.seq(g); !slices.Contains(got, 1000) {
			t.Fatalf("group %d did not deliver the flush: %v", g, got)
		}
	}
	if a, b := log.seq(1), log.seq(2); !reflect.DeepEqual(a[:n], b[:n]) {
		t.Fatalf("groups 1 and 2 disagree: %v, %v", a, b)
	}
}
