// Package transport provides real (wall-clock) runtimes for the protocol
// engines: an in-memory goroutine transport for single-process
// deployments and demos, and a TCP transport for multi-process
// deployments (cmd/flexnode, cmd/flexclient). Both feed each node from
// a single goroutine, preserving the engines' single-threaded contract,
// and both use the wire codec so message sizes match the simulator's
// accounting. Both carry envelope batches natively: a batch travels the
// transport as one unit (one mailbox operation in memory, one frame on
// the wire), which is what the batched node runtime (internal/runtime)
// builds on. Envelope slices are borrowed at every hand-off, in both
// directions: SendBatch copies or encodes what it is given before it
// returns, and a BatchHandler gets a buffer the transport reuses.
//
// Hosts reach either transport through one seam — Attach(id, handler)
// returns the node's send function, Close tears the transport down
// (runtime.Net) — implemented by InMemNet and TCPMesh.
package transport

import (
	"fmt"
	"sync"

	"flexcast/amcast"
)

// BatchHandler consumes one inbound batch: everything that arrived
// since the previous call, in per-link FIFO order (sender-side batch
// boundaries are not preserved). The slice is borrowed for the duration
// of the call — the transport reuses it afterwards — so a handler that
// keeps envelopes copies them.
type BatchHandler = func(envs []amcast.Envelope)

// SendFunc transmits one batch from the node it was attached for to a
// peer; it borrows the slice for the call (see the package comment).
type SendFunc = func(to amcast.NodeID, envs []amcast.Envelope)

// InMemNet connects nodes through bounded mailboxes, one mailbox
// goroutine per node — the group-sharding of the in-process runtime.
// Mailboxes carry batches; a full mailbox blocks the sender, providing
// natural backpressure. Close stops all nodes and waits for them.
// Registration is mutex-guarded; the send path takes only a read lock,
// so concurrent senders do not serialize on the registry.
type InMemNet struct {
	mu     sync.RWMutex
	nodes  map[amcast.NodeID]*inmemNode
	closed bool
	wg     sync.WaitGroup
}

// inmemNode is one mailbox: an envelope-bounded batch queue (envQueue)
// plus the node's identity.
type inmemNode struct {
	id amcast.NodeID
	in *envQueue
}

// mailboxDepth bounds per-node mailboxes in envelopes; sends to a full
// mailbox block, providing natural backpressure.
const mailboxDepth = 1024

// NewInMemNet returns an empty in-memory network.
func NewInMemNet() *InMemNet {
	return &InMemNet{nodes: make(map[amcast.NodeID]*inmemNode)}
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
	if n.closed {
		return fmt.Errorf("transport: network closed")
	}
	if _, dup := n.nodes[id]; dup {
		return fmt.Errorf("transport: node %s already registered", id)
	}
	node := &inmemNode{id: id, in: newEnvQueue(mailboxDepth)}
	n.nodes[id] = node
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		node.in.drain(h)
	}()
	return nil
}

// SendBatch enqueues a batch as one unit: one mailbox operation however
// many envelopes it carries. The envelopes are copied into the mailbox;
// the caller keeps the slice. Batches to unknown nodes are dropped
// (matching a network that loses packets to dead hosts); per-pair
// ordering is the mailbox's FIFO order.
func (n *InMemNet) SendBatch(from, to amcast.NodeID, envs []amcast.Envelope) {
	if len(envs) == 0 {
		return
	}
	n.mu.RLock()
	node, ok := n.nodes[to]
	closed := n.closed
	n.mu.RUnlock()
	if !ok || closed {
		return
	}
	node.in.push(envs)
}

// Close stops all nodes and waits for their mailboxes to drain.
func (n *InMemNet) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	nodes := make([]*inmemNode, 0, len(n.nodes))
	for _, node := range n.nodes {
		nodes = append(nodes, node)
	}
	n.mu.Unlock()
	for _, node := range nodes {
		node.in.close()
	}
	n.wg.Wait()
}
