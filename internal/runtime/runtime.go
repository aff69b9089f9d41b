// Package runtime is the production node runtime: it wraps one
// protocol engine per node for the wall-clock deployments (the
// in-process Cluster, cmd/flexnode, cmd/flexload) and for the
// simulated host (internal/simhost), and adds the throughput
// layer the bare transports lack:
//
//   - each node has a bounded inbound queue — the only queue between
//     the wire and the engine: transports call Submit directly, on the
//     sending goroutine in memory and on the connection's reader over
//     TCP. The bound is counted in envelopes — batching must never
//     widen effective buffering, or queue residency (and with it the
//     protocols' in-flight dependency state) balloons — and a full
//     queue blocks Submit: a saturated node backpressures its senders;
//   - a step pops up to MaxBatch queued envelopes, steps the engine
//     once for the chunk through its batch fast path (amcast.BatchStep;
//     a batch is a scheduling unit, the protocol semantics stay
//     per-envelope) and flushes the per-destination output batches
//     (Batcher) at the chunk's end: amortization comes from within a
//     chunk, never from holding outputs across chunks, so an idle node
//     adds no batching latency. No flush timer: a batch parked by
//     backpressure is parked by the step holding Batcher.mu, the lock a
//     timer would need;
//   - a wall-clock node's worker goroutine waits for work and steps; a
//     simulator builds its nodes with NewStepped and steps them on its
//     own clock, so the chaos cells check this step, not a model of it.
//     The replicas (internal/smr) still step their engines themselves.
//
// Because a send runs the receiver's Submit on the sender's goroutine,
// locks nest across nodes in one order only: the sender's Batcher.mu,
// then the receiver's queue lock or (serving a read) its executor's
// read lock, then a client's lock when a reply reaches it. Nothing
// takes them the other way: a client handler never sends, and a client
// transmits outside its own lock. A blocked send is a wait-for edge
// from the sending worker to the receiving one; DESIGN.md §1b shows why
// no protocol closes a cycle of them.
package runtime

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"flexcast/amcast"
	"flexcast/internal/telemetry"
)

// SendBatchFunc transmits one batch to a peer: what a transport's
// Attach returns (Net), or any test hook. Calls are serialized by the batcher; per-destination
// call order is the envelope order, preserving FIFO links. The slice is
// borrowed for the duration of the call — the batcher refills it as soon
// as the call returns — so an implementation that keeps envelopes past
// its return copies them.
type SendBatchFunc func(to amcast.NodeID, envs []amcast.Envelope)

// Config parameterizes a Node.
type Config struct {
	// MaxBatch caps both the envelopes drained per engine step and the
	// per-destination output batches (reaching it flushes immediately).
	// 1 disables batching entirely — the per-envelope baseline the
	// benchmark subsystem compares against. 0 takes the default (64).
	MaxBatch int
	// QueueDepth bounds the inbound queue in envelopes (default 1024) —
	// the same effective buffering whatever MaxBatch is.
	QueueDepth int
	// OnDeliver observes every delivery after the client reply has been
	// queued. Called from the node's worker goroutine. May be nil.
	OnDeliver func(d amcast.Delivery)
	// ReadHandler, when non-nil, serves KindRead envelopes — read-only
	// transactions addressed to this node outside the multicast
	// (DESIGN.md §1e). Read envelopes never enter the engine: they are
	// diverted at Submit and served on the submitting goroutine (reads
	// only take the executor's read side, so they run concurrently with
	// the worker), and the returned reply is transmitted immediately —
	// a read never queues behind the write path. Nodes without a handler
	// drop read envelopes.
	ReadHandler func(env amcast.Envelope) amcast.Envelope
	// Tracer, when non-nil, stamps sampled requests' lifecycle stages:
	// StageEnqueue when a KindRequest enters the inbound queue,
	// StageDequeue when the worker pops it, StageDeliver when the
	// engine emits its delivery, StageFlush when its reply batch
	// leaves the batcher. Unsampled envelopes cost one branch.
	Tracer *telemetry.Tracer
}

func (c *Config) fill() {
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
}

// Node runs one group engine under the batched runtime: a single worker
// goroutine owns the engine (preserving the single-threaded contract),
// inbound batches enter through Submit, outputs leave through the
// per-destination Batcher.
type Node struct {
	id   amcast.NodeID
	cfg  Config
	eng  amcast.Engine
	send SendBatchFunc

	// Inbound queue: an envelope-counted deque. A channel would count
	// batches, and 1024 64-envelope batches is 64x the buffering of 1024
	// envelopes — enough queue residency to visibly inflate the
	// protocols' in-flight state under saturation.
	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []amcast.Envelope
	stopped bool
	// marks and blocked are the priority drain's reusable scratch
	// (allocation-free selection; see takePriorityLocked).
	marks   []bool
	blocked []amcast.NodeID

	batcher *Batcher

	// Backpressure accounting: stalls counts Submit calls that blocked
	// on a full queue, stallNs their total blocked time.
	stalls  atomic.Uint64
	stallNs atomic.Uint64

	wg sync.WaitGroup
}

// Net is the seam between a host and its transport: Attach registers a
// node's inbound batch handler and returns its send function, Close
// tears the transport down. transport.InMemNet, transport.TCPMesh and
// loadgen's WAN delay decorator implement it; clients attach through it
// too.
type Net interface {
	Attach(id amcast.NodeID, h func(envs []amcast.Envelope)) (func(to amcast.NodeID, envs []amcast.Envelope), error)
	Close()
}

// Host runs eng under a Node attached to net at its group's address —
// the one place a node meets a transport. The node needs a send function
// to be built, the transport needs the node's Submit to attach it, and a
// listener delivers the moment it is attached: so the node is built
// first, its sends parked until Attach has returned the real function.
func Host(net Net, eng amcast.Engine, cfg Config) (*Node, error) {
	var send SendBatchFunc
	attached := make(chan struct{})
	n := NewNode(eng, func(to amcast.NodeID, envs []amcast.Envelope) {
		<-attached
		send(to, envs)
	}, cfg)
	send, err := net.Attach(n.id, n.Submit)
	close(attached)
	if err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// NewNode starts eng's worker over a batch send function; deployments
// call it through Host, which also registers the node's Submit as the
// transport's batch handler for the engine's group.
func NewNode(eng amcast.Engine, send SendBatchFunc, cfg Config) *Node {
	n := NewStepped(eng, send, cfg)
	n.wg.Add(1)
	go n.worker()
	return n
}

// NewStepped builds a node with no goroutine, for a simulator: the
// caller runs each chunk with Step, so it must step before the queue
// reaches QueueDepth, or Submit blocks.
func NewStepped(eng amcast.Engine, send SendBatchFunc, cfg Config) *Node {
	cfg.fill()
	n := &Node{
		id:      amcast.GroupNode(eng.Group()),
		cfg:     cfg,
		eng:     eng,
		send:    send,
		batcher: NewBatcher(send, cfg.MaxBatch),
	}
	n.batcher.SetTracer(cfg.Tracer)
	n.qcond = sync.NewCond(&n.qmu)
	return n
}

// ID returns the node's network address.
func (n *Node) ID() amcast.NodeID { return n.id }

// Submit enqueues one inbound batch; it is the node's transport handler
// and runs on the transport's goroutine for the link (BatchHandler). It
// blocks while the queue holds QueueDepth or more envelopes
// (backpressure) and drops the batch once the node is closed. The
// batch is copied in, so Submit only borrows envs.
func (n *Node) Submit(envs []amcast.Envelope) {
	if len(envs) == 0 {
		return
	}
	envs = n.serveReads(envs)
	if len(envs) == 0 {
		return
	}
	// Stamp before the append (not after the unlock): the worker can
	// pop an envelope the moment it is queued, and a Dequeue stamp must
	// never precede its Enqueue stamp. Stamped here, the enqueue→dequeue
	// transition covers queue residency including any backpressure wait.
	if tr := n.cfg.Tracer; tr != nil {
		for i := range envs {
			if envs[i].Kind == amcast.KindRequest {
				tr.Stamp(envs[i].Msg.ID, telemetry.StageEnqueue)
			}
		}
	}
	n.qmu.Lock()
	if len(n.queue) >= n.cfg.QueueDepth && !n.stopped {
		// Backpressure: account the stall (off the fast path — an
		// uncontended Submit never reads the clock).
		start := time.Now()
		for len(n.queue) >= n.cfg.QueueDepth && !n.stopped {
			n.qcond.Wait()
		}
		n.stalls.Add(1)
		n.stallNs.Add(uint64(time.Since(start)))
	}
	if n.stopped {
		n.qmu.Unlock()
		return
	}
	n.queue = append(n.queue, envs...)
	n.qmu.Unlock()
	n.qcond.Signal()
}

// serveReads diverts KindRead envelopes out of an inbound batch and
// serves them through the configured ReadHandler, on the submitting
// goroutine — the sender's own in memory; the filtered batch (usually the whole batch — reads are
// rare relative to protocol traffic on any one link) continues to the
// queue. Replies go out directly, bypassing the worker-owned batcher: a
// read completes without ever synchronizing with the write path.
func (n *Node) serveReads(envs []amcast.Envelope) []amcast.Envelope {
	hasRead := false
	for i := range envs {
		if envs[i].Kind == amcast.KindRead {
			hasRead = true
			break
		}
	}
	if !hasRead {
		return envs
	}
	rest := make([]amcast.Envelope, 0, len(envs))
	for _, env := range envs {
		if env.Kind != amcast.KindRead {
			rest = append(rest, env)
			continue
		}
		if n.cfg.ReadHandler == nil {
			continue // no serving state: drop, like any unexpected kind
		}
		reply := n.cfg.ReadHandler(env)
		n.send(env.Msg.Sender, []amcast.Envelope{reply})
	}
	return rest
}

// take pops up to MaxBatch queued envelopes into buf. With wait it
// blocks until at least one is available or the node stops (then
// draining the remainder); without, an empty queue returns buf empty.
//
// Receiver-side control-priority drain: when the backlog exceeds one
// chunk, control envelopes (ACK/NOTIF/TS — everything that unblocks
// delivery) are drained ahead of payload envelopes queued before them,
// so a saturated node keeps answering the protocol instead of parking
// acks behind hundreds of payloads. The selection preserves per-sender
// FIFO: an envelope is only promoted past envelopes from *other*
// senders, never past an earlier envelope from its own sender — the
// only ordering the protocols assume (FIFO links), and the one
// FlexCast's incremental history diffs rely on. Reordering across
// senders is indistinguishable from a different arrival interleaving;
// prototest.RunChunkedSafety runs this selection on seeded backlogs
// (DESIGN.md §1b).
func (n *Node) take(buf []amcast.Envelope, wait bool) []amcast.Envelope {
	n.qmu.Lock()
	for wait && len(n.queue) == 0 && !n.stopped {
		n.qcond.Wait()
	}
	k := min(len(n.queue), n.cfg.MaxBatch)
	if len(n.queue) > k && k > 1 {
		// Backlogged: the unselected remainder waits at least one more
		// chunk, so promotion changes real processing order — select.
		buf = n.takePriorityLocked(buf, k)
	} else {
		// The whole queue fits one chunk (or batching is off): plain
		// FIFO pop; priority would only permute within the same chunk.
		buf = append(buf[:0], n.queue[:k]...)
		rest := copy(n.queue, n.queue[k:])
		n.queue = n.queue[:rest]
	}
	n.qmu.Unlock()
	n.qcond.Broadcast()
	return buf
}

// takePriorityLocked selects up to k envelopes from the backlogged
// queue: the queue head unconditionally (the fairness bound — every
// take consumes the globally oldest envelope, so an envelope at queue
// position p is processed within p takes and pure control floods can
// never starve a parked payload indefinitely), then the control
// envelopes that are not preceded by an unselected envelope from their
// own sender, then the remaining envelopes in arrival order. For every
// sender the selection is a prefix of its queued subsequence, taken in
// order — per-sender FIFO by construction (the head has no earlier
// envelope at all, so selecting it first never violates it). Runs under
// qmu with reusable scratch (no allocations in steady state).
func (n *Node) takePriorityLocked(buf []amcast.Envelope, k int) []amcast.Envelope {
	buf = buf[:0]
	if cap(n.marks) < len(n.queue) {
		n.marks = make([]bool, len(n.queue))
	}
	marks := n.marks[:len(n.queue)]
	for i := range marks {
		marks[i] = false
	}
	marks[0] = true
	buf = append(buf, n.queue[0])
	blocked := n.blocked[:0]
	isBlocked := func(from amcast.NodeID) bool {
		for _, b := range blocked {
			if b == from {
				return true
			}
		}
		return false
	}
	for i := 1; i < len(n.queue); i++ {
		if len(buf) >= k {
			break
		}
		env := &n.queue[i]
		if !env.Kind.IsPayload() && !isBlocked(env.From) {
			marks[i] = true
			buf = append(buf, *env)
			continue
		}
		// Unselected: later envelopes from this sender must not be
		// promoted past it.
		if !isBlocked(env.From) {
			blocked = append(blocked, env.From)
		}
	}
	n.blocked = blocked[:0]
	for i := range n.queue {
		if len(buf) >= k {
			break
		}
		if !marks[i] {
			marks[i] = true
			buf = append(buf, n.queue[i])
		}
	}
	rest := n.queue[:0]
	for i := range n.queue {
		if !marks[i] {
			rest = append(rest, n.queue[i])
		}
	}
	n.queue = rest
	return buf
}

// worker drains the inbound queue chunk by chunk: wait for work, step.
func (n *Node) worker() {
	defer n.wg.Done()
	// One chunk buffer for the node's lifetime: take refills it in
	// place, so the hot path allocates nothing per chunk.
	buf := make([]amcast.Envelope, 0, n.cfg.MaxBatch)
	for {
		if buf = n.step(buf, true); len(buf) == 0 {
			return // stopped and drained
		}
	}
}

// Step runs one chunk without blocking and returns buf holding it,
// empty when the queue was. The chunk was only lent to the engine.
func (n *Node) Step(buf []amcast.Envelope) []amcast.Envelope { return n.step(buf, false) }

// step is one queue pop (take), one engine step (process), one batcher
// flush.
func (n *Node) step(buf []amcast.Envelope, wait bool) []amcast.Envelope {
	buf = n.take(buf, wait)
	if len(buf) > 0 {
		n.process(buf)
		n.batcher.FlushAll()
	}
	return buf
}

// process steps the engine once for the whole chunk.
func (n *Node) process(envs []amcast.Envelope) {
	tr := n.cfg.Tracer
	if tr != nil {
		for i := range envs {
			if envs[i].Kind == amcast.KindRequest {
				tr.Stamp(envs[i].Msg.ID, telemetry.StageDequeue)
			}
		}
	}
	outs := amcast.BatchStep(n.eng, envs)
	dels := n.eng.TakeDeliveries()
	for _, o := range outs {
		n.batcher.Add(o.To, o.Env)
	}
	for _, d := range dels {
		if d.Msg.Sender.IsClient() {
			// First-wins with the executor's own Deliver stamp (which
			// fires inside TakeDeliveries, before this): the earliest
			// group to deliver marks the ordering point.
			tr.Stamp(d.Msg.ID, telemetry.StageDeliver)
			n.batcher.Add(d.Msg.Sender, amcast.ReplyFor(n.id, d))
		}
		if n.cfg.OnDeliver != nil {
			n.cfg.OnDeliver(d)
		}
	}
}

// Stats reports the batcher's counters.
func (n *Node) Stats() BatcherStats { return n.batcher.Stats() }

// QueueLen reports the inbound queue's current depth in envelopes — a
// telemetry gauge; saturation shows as QueueLen pinned at QueueDepth.
func (n *Node) QueueLen() int {
	n.qmu.Lock()
	l := len(n.queue)
	n.qmu.Unlock()
	return l
}

// Backpressure reports how often Submit blocked on a full queue and the
// total nanoseconds spent blocked.
func (n *Node) Backpressure() (stalls, ns uint64) {
	return n.stalls.Load(), n.stallNs.Load()
}

// Close stops the worker (draining what is queued), flushes pending
// output batches, and closes the engine if it holds resources (the
// durable backend's WAL syncs and closes here — after the worker
// stopped, so the engine is quiesced).
func (n *Node) Close() {
	n.qmu.Lock()
	n.stopped = true
	n.qmu.Unlock()
	n.qcond.Broadcast()
	n.wg.Wait()
	n.batcher.FlushAll()
	if c, ok := n.eng.(io.Closer); ok {
		c.Close()
	}
}
