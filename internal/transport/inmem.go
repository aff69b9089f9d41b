// Package transport provides real (wall-clock) runtimes for the protocol
// engines: an in-memory transport for single-process deployments and
// demos, and a TCP transport for multi-process deployments
// (cmd/flexnode, cmd/flexclient). Both carry envelope batches natively —
// a batch travels as one unit (one handler call in memory, one frame on
// the wire), which is what the batched node runtime (internal/runtime)
// builds on — and both use the wire codec so message sizes match the
// simulator's accounting.
//
// Neither queues: an inbound batch goes straight to the receiver's
// handler, in memory on the sending goroutine and over TCP on the
// connection's reader, so the one inbound queue on the path is the
// node runtime's (runtime.Node, bounded in envelopes). Its backpressure
// reaches the sender unchanged: a full queue blocks the in-memory
// sender inside the handler, and stops a TCP reader, whose socket
// buffers then fill up to the sending peer. Envelope slices are
// borrowed at every hand-off, in both directions: SendBatch lends what
// it is given to the receiver's handler or encodes it before it
// returns, and a BatchHandler gets a buffer its caller reuses.
//
// Hosts reach either transport through one seam — Attach(id, handler)
// returns the node's send function, Close tears the transport down
// (runtime.Net) — implemented by InMemNet and TCPMesh.
package transport

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"flexcast/amcast"
)

// BatchHandler consumes one inbound batch. Its contract (DESIGN.md §1b):
//
//   - a call runs on the link's goroutine: the sender's own in memory,
//     the connection's reader over TCP — one goroutine per link;
//   - a link's batches, sent one after another, arrive in that order
//     (per-link FIFO);
//   - calls may run concurrently — for different links, and for
//     batches one sender sends concurrently (a node's read replies
//     bypass its batcher) — so a handler guards its own state
//     (runtime.Node.Submit and every client handler lock);
//   - the slice is borrowed for the call — the caller reuses it
//     afterwards — so a handler that keeps envelopes copies them.
//
// A handler may block (a full node queue does): that is backpressure on
// the link's sender.
type BatchHandler = func(envs []amcast.Envelope)

// SendFunc transmits one batch from the node it was attached for to a
// peer; it borrows the slice for the call (see the package comment).
type SendFunc = func(to amcast.NodeID, envs []amcast.Envelope)

// InMemNet connects in-process nodes: SendBatch calls the receiver's
// handler on the sending goroutine, and attaching a node starts no
// goroutine. The node table is copied on every registration and read
// without a lock, so a send costs one atomic load and a binary search.
type InMemNet struct {
	mu    sync.Mutex // serializes registration and Close
	table atomic.Pointer[inmemTable]
}

// inmemTable is one immutable version of the node table.
type inmemTable struct {
	ids      []amcast.NodeID // ascending
	handlers []BatchHandler  // handlers[i] serves ids[i]
	closed   bool            // no node can attach any more
}

// NewInMemNet returns an empty in-memory network.
func NewInMemNet() *InMemNet {
	n := &InMemNet{}
	n.table.Store(&inmemTable{})
	return n
}

// AddBatchHandler attaches a raw batch handler; the node runtime
// (internal/runtime) registers itself this way.
func (n *InMemNet) AddBatchHandler(id amcast.NodeID, h BatchHandler) error {
	return n.addNode(id, h)
}

// Attach registers id's batch handler and returns its send function.
func (n *InMemNet) Attach(id amcast.NodeID, h BatchHandler) (SendFunc, error) {
	if err := n.addNode(id, h); err != nil {
		return nil, err
	}
	return func(to amcast.NodeID, envs []amcast.Envelope) { n.SendBatch(id, to, envs) }, nil
}

func (n *InMemNet) addNode(id amcast.NodeID, h BatchHandler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := n.table.Load()
	if t.closed {
		return fmt.Errorf("transport: network closed")
	}
	i, dup := slices.BinarySearch(t.ids, id)
	if dup {
		return fmt.Errorf("transport: node %s already registered", id)
	}
	n.table.Store(&inmemTable{
		ids:      slices.Insert(slices.Clone(t.ids), i, id),
		handlers: slices.Insert(slices.Clone(t.handlers), i, h),
	})
	return nil
}

// SendBatch hands a batch to the receiver's handler as one unit, on the
// calling goroutine: it returns when the handler does, so a receiver
// whose queue is full blocks its sender. The handler borrows the slice
// for the call (BatchHandler). Batches to unknown nodes are dropped
// (matching a network that loses packets to dead hosts); per-pair order
// is the sender's call order.
func (n *InMemNet) SendBatch(from, to amcast.NodeID, envs []amcast.Envelope) {
	if len(envs) == 0 {
		return
	}
	t := n.table.Load()
	if i, ok := slices.BinarySearch(t.ids, to); ok { // a closed table is empty
		t.handlers[i](envs)
	}
}

// Close detaches every node: later sends are dropped. A send already
// inside a handler finishes there; the handler's owner stops it (a
// closed runtime.Node drops what it is handed, unblocking its senders).
func (n *InMemNet) Close() {
	n.mu.Lock()
	n.table.Store(&inmemTable{closed: true})
	n.mu.Unlock()
}
