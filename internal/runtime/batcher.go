package runtime

import (
	"sync"

	"flexcast/amcast"
	"flexcast/internal/telemetry"
)

// Batcher accumulates outbound envelopes per destination and hands them
// to the transport as batches: a destination's batch is sent when it
// reaches the size cap, when the owning node's queue runs dry, or when
// an adaptive node's controller tick fires. Sends happen under the batcher's mutex, so per-
// destination envelope order is exactly the Add order — the FIFO-link
// property the protocols assume survives batching. The send function
// only borrows a batch (SendBatchFunc): each destination's buffer lives
// as long as the batcher and is refilled after every send.
//
// Control-priority flushing: batches carrying protocol control
// envelopes (ACK, NOTIF, TS, REPLY — everything that unblocks delivery
// or completes a client transaction) are flushed ahead of payload-only
// batches. Large chunks consolidate acks at chunk end, where they used
// to queue behind fat payload frames into backpressured transports,
// stretching FlexCast transaction lifetimes and widening in-flight
// dependency state (more NOTIFs, fatter history diffs). Priority is
// strictly across destinations: a destination's own batch is never
// reordered internally, because FlexCast's incremental history diffs
// rely on per-link FIFO delivery.
type Batcher struct {
	mu   sync.Mutex
	send SendBatchFunc
	max  int
	// dests holds one entry per destination ever sent to, found by
	// linear scan: a node talks to at most a dozen groups plus its
	// clients, so a scan beats hashing. A destination has a batch
	// pending while its buffer is non-empty.
	dests []destBatch
	// order lists the dests indices with pending envelopes in first-Add
	// order so FlushAll is deterministic and starvation-free.
	order []int

	// tracer, when non-nil, stamps StageFlush on sampled write replies as
	// their batch leaves for the transport.
	tracer *telemetry.Tracer

	stats BatcherStats
}

// destBatch is one destination's reusable batch buffer. control marks a
// pending batch carrying at least one control envelope; FlushAll sends
// those first.
type destBatch struct {
	to      amcast.NodeID
	q       []amcast.Envelope
	control bool
}

// BatcherStats counts what the batcher moved.
type BatcherStats struct {
	// Batches is the number of transport sends.
	Batches uint64
	// Envelopes is the total number of envelopes sent.
	Envelopes uint64
	// MaxBatch is the largest batch sent.
	MaxBatch int
	// ControlBatches counts batches flushed in the control-priority
	// phase (carrying at least one ACK/NOTIF/TS/REPLY envelope).
	ControlBatches uint64
	// SizeFlushes counts batches sent because they hit the size cap,
	// ChunkFlushes batches sent by the worker's chunk-end flush, and
	// TimerFlushes batches sent by an adaptive node's controller tick (a
	// static node runs no timer: always 0). Their ratio shows whether
	// batching is fill-driven (throughput-bound) or timer-driven (idle /
	// latency-bound).
	SizeFlushes  uint64
	ChunkFlushes uint64
	TimerFlushes uint64
}

// AvgBatch returns the mean envelopes per transport send.
func (s BatcherStats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Envelopes) / float64(s.Batches)
}

// Add accumulates another node's stats into s.
func (s *BatcherStats) Add(s2 BatcherStats) {
	s.Batches += s2.Batches
	s.Envelopes += s2.Envelopes
	s.ControlBatches += s2.ControlBatches
	s.SizeFlushes += s2.SizeFlushes
	s.ChunkFlushes += s2.ChunkFlushes
	s.TimerFlushes += s2.TimerFlushes
	if s2.MaxBatch > s.MaxBatch {
		s.MaxBatch = s2.MaxBatch
	}
}

// NewBatcher builds a batcher over a transport send function. max <= 1
// degenerates to unbatched pass-through sends.
func NewBatcher(send SendBatchFunc, max int) *Batcher {
	if max < 1 {
		max = 1
	}
	return &Batcher{send: send, max: max}
}

// SetTracer attaches the lifecycle tracer (nil detaches). Called once
// at node construction, before any Add.
func (b *Batcher) SetTracer(t *telemetry.Tracer) {
	b.mu.Lock()
	b.tracer = t
	b.mu.Unlock()
}

// SetMax republishes the size cap — the adaptive controller's lever.
// Batches already pending above a shrunk cap flush on the next Add or
// FlushAll; lowering the cap to 1 keeps pass-through semantics for new
// envelopes only, never reorders what is queued.
func (b *Batcher) SetMax(max int) {
	if max < 1 {
		max = 1
	}
	b.mu.Lock()
	b.max = max
	b.mu.Unlock()
}

// isControl reports whether an envelope is latency-critical protocol
// control traffic rather than payload propagation.
func isControl(env amcast.Envelope) bool { return !env.Kind.IsPayload() }

// Add queues one envelope for a destination, flushing that destination's
// batch when it reaches the cap.
func (b *Batcher) Add(to amcast.NodeID, env amcast.Envelope) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.max <= 1 {
		if isControl(env) {
			b.stats.ControlBatches++
		}
		b.stats.SizeFlushes++
		b.sendLocked(to, []amcast.Envelope{env})
		return
	}
	i := b.dest(to)
	d := &b.dests[i]
	d.q = append(d.q, env)
	if len(d.q) == 1 {
		b.order = append(b.order, i)
	}
	if isControl(env) {
		d.control = true
	}
	if len(d.q) >= b.max {
		b.stats.SizeFlushes++
		b.flushLocked(i)
	}
}

// dest returns the index of to's entry, adding one on first use.
func (b *Batcher) dest(to amcast.NodeID) int {
	for i := range b.dests {
		if b.dests[i].to == to {
			return i
		}
	}
	b.dests = append(b.dests, destBatch{to: to})
	return len(b.dests) - 1
}

// FlushAll sends every pending batch: control-bearing destinations
// first (in first-Add order), payload-only destinations after, so acks
// and replies are never stuck behind payload frames on a backpressured
// transport. This is the worker's chunk-end flush.
func (b *Batcher) FlushAll() { b.flushAll(false) }

// FlushTimer is FlushAll invoked from an adaptive node's tick; the
// batches it sends are accounted as timer flushes instead of chunk
// flushes.
func (b *Batcher) FlushTimer() { b.flushAll(true) }

func (b *Batcher) flushAll(timer bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.order) == 0 {
		return
	}
	ctr := &b.stats.ChunkFlushes
	if timer {
		ctr = &b.stats.TimerFlushes
	}
	// Sends run under mu, so nothing is added while order is detached;
	// its backing array is put back, empty, for the next chunk.
	order := b.order
	b.order = nil
	for _, i := range order {
		if d := &b.dests[i]; d.control && len(d.q) > 0 {
			*ctr++
			b.flushLocked(i)
		}
	}
	for _, i := range order {
		if len(b.dests[i].q) > 0 {
			*ctr++
			b.flushLocked(i)
		}
	}
	b.order = order[:0]
}

// Stats returns a snapshot of the counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Scrub ends a send's loan of a batch buffer: zeroed, so the payloads
// it referenced are collectable while the buffer waits for the
// destination's next batch. A variable only so tests can poison instead
// (prototest.PoisonLoans) and make a send function that kept the slice
// fail loudly.
var Scrub = func(envs []amcast.Envelope) { clear(envs) }

// flushLocked sends dests[i]'s batch and clears its bookkeeping. The
// send only borrowed the buffer, so it is scrubbed and kept for the
// destination's next batch.
func (b *Batcher) flushLocked(i int) {
	b.dropFromOrder(i)
	d := &b.dests[i]
	if d.control {
		b.stats.ControlBatches++
		d.control = false
	}
	b.sendLocked(d.to, d.q)
	Scrub(d.q)
	d.q = d.q[:0]
}

// sendLocked transmits one batch while holding the mutex; the transport
// may block (backpressure), which intentionally stalls the owning node.
func (b *Batcher) sendLocked(to amcast.NodeID, envs []amcast.Envelope) {
	b.stats.Batches++
	b.stats.Envelopes += uint64(len(envs))
	if len(envs) > b.stats.MaxBatch {
		b.stats.MaxBatch = len(envs)
	}
	if tr := b.tracer; tr != nil {
		// Stamp write replies as the batch leaves: the send below
		// happens-before the client's Finish, so no stamp can straggle
		// past record retirement. Read replies are excluded — reads
		// bypass the batcher and are not traced.
		for i := range envs {
			if envs[i].Kind == amcast.KindReply && envs[i].Msg.Flags&amcast.FlagRead == 0 {
				tr.Stamp(envs[i].Msg.ID, telemetry.StageFlush)
			}
		}
	}
	b.send(to, envs)
}

func (b *Batcher) dropFromOrder(i int) {
	for k, d := range b.order {
		if d == i {
			b.order = append(b.order[:k], b.order[k+1:]...)
			return
		}
	}
}
