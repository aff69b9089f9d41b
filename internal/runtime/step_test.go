package runtime_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/runtime"
)

// tap records what a node sends, per destination, and what it delivers.
// Sends arrive on the node's worker while the test goroutine reads, so
// it locks; the batch is borrowed, so it copies.
type tap struct {
	mu    sync.Mutex
	sends map[amcast.NodeID][]amcast.Envelope
	dels  []amcast.Delivery
}

func (tp *tap) send(to amcast.NodeID, envs []amcast.Envelope) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.sends[to] = append(tp.sends[to], envs...)
}

func (tp *tap) deliver(d amcast.Delivery) { tp.dels = append(tp.dels, d) }

// stepInputs is a FlexCast group 2's input: a first request, then a
// backlog mixing requests from three clients — local ones, and ones for
// groups 2 and 3 that group 2 orders and forwards — with MSG/ACK pairs
// from group 1, so take's priority drain has acks to promote past other
// senders' payloads.
func stepInputs() (first []amcast.Envelope, rest [][]amcast.Envelope) {
	req := func(c int, seq uint64) amcast.Envelope {
		dst := []amcast.GroupID{2}
		if seq%2 == 0 {
			dst = append(dst, 3)
		}
		return amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(c), Msg: amcast.Message{
			ID: amcast.NewMsgID(c, seq), Sender: amcast.ClientNode(c), Dst: dst,
		}}
	}
	first = []amcast.Envelope{req(0, 1)}
	for k := uint64(1); k <= 12; k++ {
		m := amcast.Message{ID: amcast.NewMsgID(3, k), Sender: amcast.ClientNode(3), Dst: []amcast.GroupID{1, 2}}
		rest = append(rest, []amcast.Envelope{
			req(int(k%3), k+1),
			{Kind: amcast.KindMsg, From: amcast.GroupNode(1), Msg: m},
			{Kind: amcast.KindAck, From: amcast.GroupNode(1), Msg: m.Header()},
		})
	}
	return first, rest
}

// TestSteppedNodeMatchesWorker feeds the same input batches to a worker
// node and a stepped node over the same engine. The worker is parked in
// the send of its first chunk while the rest queue up, so both pop the
// same backlog with take's selection; every destination must then see
// the same envelopes in the same order, and the deliveries must agree.
func TestSteppedNodeMatchesWorker(t *testing.T) {
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2, 3})
	engine := func() amcast.Engine { return core.MustNew(core.Config{Group: 2, Overlay: ov}) }
	cfg := func(tp *tap) runtime.Config { return runtime.Config{MaxBatch: 4, OnDeliver: tp.deliver} }
	first, rest := stepInputs()

	worker := &tap{sends: map[amcast.NodeID][]amcast.Envelope{}}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	wn := runtime.NewNode(engine(), func(to amcast.NodeID, envs []amcast.Envelope) {
		once.Do(func() { close(parked); <-release })
		worker.send(to, envs)
	}, cfg(worker))
	wn.Submit(first)
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the worker's first chunk sent nothing")
	}
	for _, b := range rest {
		wn.Submit(b)
	}
	close(release)
	wn.Close()

	stepped := &tap{sends: map[amcast.NodeID][]amcast.Envelope{}}
	sn := runtime.NewStepped(engine(), stepped.send, cfg(stepped))
	var buf []amcast.Envelope
	sn.Submit(first)
	buf = sn.Step(buf)
	for _, b := range rest {
		sn.Submit(b)
	}
	chunks := 1
	for buf = sn.Step(buf); len(buf) > 0; buf = sn.Step(buf) {
		chunks++
	}
	if want := 1 + (3*len(rest)+3)/4; chunks != want {
		t.Fatalf("stepped node ran %d chunks, want %d", chunks, want)
	}

	if !reflect.DeepEqual(worker.sends, stepped.sends) {
		t.Fatalf("per-destination sends differ:\n worker  %v\n stepped %v", worker.sends, stepped.sends)
	}
	if !reflect.DeepEqual(worker.dels, stepped.dels) {
		t.Fatalf("deliveries differ:\n worker  %v\n stepped %v", worker.dels, stepped.dels)
	}
	if len(stepped.dels) <= len(rest) || len(stepped.sends) < 2 {
		t.Fatalf("%d deliveries to %d destinations: the input exercised too little", len(stepped.dels), len(stepped.sends))
	}
}

// TestStepEmptyQueueReturns: a step on an empty queue is a no-op that
// returns at once, where the worker would wait for work.
func TestStepEmptyQueueReturns(t *testing.T) {
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2})
	n := runtime.NewStepped(core.MustNew(core.Config{Group: 1, Overlay: ov}),
		func(amcast.NodeID, []amcast.Envelope) { t.Error("an empty step sent") }, runtime.Config{})
	done := make(chan []amcast.Envelope)
	go func() { done <- n.Step(make([]amcast.Envelope, 3, 8)) }()
	select {
	case buf := <-done:
		if len(buf) != 0 {
			t.Fatalf("empty step returned %d envelopes", len(buf))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Step on an empty queue blocked")
	}
}
