package transport

import (
	"sync"

	"flexcast/amcast"
)

// envQueue is a FIFO of envelopes bounded by its envelope count, so a
// batched sender gets exactly the same effective buffering as an
// unbatched one (a channel of batches would multiply the bound by the
// batch size, and the extra queue residency visibly inflates the
// protocols' in-flight state under saturation). Both transports use it:
// the in-memory mailboxes and the TCP inbound dispatch queue.
//
// It is two flat buffers. Producers copy into fill — a pushed slice is
// only borrowed — and the single consumer (drain) swaps the buffers and
// lends the handler everything queued in one wake-up. Both buffers grow
// to the bound once and are reused for the queue's lifetime.
type envQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	fill    []amcast.Envelope // queued, under mu
	lent    []amcast.Envelope // the consumer's, between pops
	limit   int
	stopped bool
}

// Scrub ends a handler's loan of a dispatch buffer: zeroed, so the
// payloads it referenced are collectable while the buffer waits to be
// refilled. A variable only so tests can poison instead
// (prototest.PoisonLoans) and make a handler that kept the slice fail
// loudly.
var Scrub = func(envs []amcast.Envelope) { clear(envs) }

func newEnvQueue(limit int) *envQueue {
	q := &envQueue{limit: limit}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push blocks until the queue has room, then copies the batch in; it
// reports false once the queue stopped.
func (q *envQueue) push(envs []amcast.Envelope) bool {
	q.mu.Lock()
	for len(q.fill) >= q.limit && !q.stopped {
		q.cond.Wait()
	}
	if q.stopped {
		q.mu.Unlock()
		return false
	}
	q.fill = append(q.fill, envs...)
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// pop blocks until envelopes are queued and returns all of them, in
// push order; nil means stopped and drained. The slice is valid until
// the next pop.
func (q *envQueue) pop() []amcast.Envelope {
	q.mu.Lock()
	for len(q.fill) == 0 && !q.stopped {
		q.cond.Wait()
	}
	if len(q.fill) == 0 {
		q.mu.Unlock()
		return nil
	}
	q.fill, q.lent = q.lent[:0], q.fill
	q.mu.Unlock()
	q.cond.Broadcast()
	return q.lent
}

// drain feeds the handler until the queue is stopped and drained.
func (q *envQueue) drain(h BatchHandler) {
	for envs := q.pop(); envs != nil; envs = q.pop() {
		h(envs)
		Scrub(envs)
	}
}

func (q *envQueue) close() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
