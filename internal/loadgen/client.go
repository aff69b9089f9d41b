package loadgen

import (
	"sync"
	"sync/atomic"
	"time"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/gtpcc"
	"flexcast/internal/runtime"
)

// txState is what one in-flight transaction keeps in its call entry at
// the issuing client (the entry itself folds the replies and verdicts).
type txState struct {
	issued time.Time
	done   chan struct{} // closed-loop sessions wait on it; nil open-loop
	// timedOut is set by the run's sweep (expire) before it closes done.
	timedOut bool
	// silent transactions (the flush client's) stay out of the metrics.
	silent bool
	// isRead marks a remote KindRead transaction: measured in the read
	// histogram, never in the multicast counters.
	isRead bool
	// txType and amount carry execute-mode detail for per-type stats
	// and the payment cross-check.
	txType gtpcc.TxType
	amount int64
	// sess is the virtual session that admitted this transaction
	// (session-multiplexed open loop); completion releases its
	// outstanding slot. nil outside session mode.
	sess *session
	// woken is set by onReplies, before it closes done, when the
	// completion counted the waiting session into its client's wave.
	woken bool
}

// clientProc is one client process: its own node id on the transport, a
// request batcher its sessions post to themselves (batches form only
// when sessions outpace the transport, and an idle client flushes
// immediately, as a runtime.Node does at chunk end), and the table
// of open calls (client.Calls) its reply handler resolves.
type clientProc struct {
	idx     int
	id      amcast.NodeID
	batcher *runtime.Batcher

	// holdWaves selects the TCP client's flush policy (launch): a
	// closed-loop write completion counts its session into wave, and the
	// woken sessions' requests wait in the batcher until the last of
	// them posts or leaves (postWoken, leave), so the sessions one reply
	// frame woke send their next requests in one write per destination.
	// Without it every post flushes.
	holdWaves bool
	wave      atomic.Int64

	// calls is the in-flight table; calls.Prefix is this client process's
	// session barrier: the delivered prefix observed per group from
	// replies (sequence numbers plus piggybacked watermarks) and from
	// read results — the read-your-writes barrier of its reads, valid at
	// whichever replica serves them. Both guarded by mu.
	mu    sync.Mutex
	calls *client.Calls[txState]

	// rr round-robins the process's reads over its group's follower
	// replicas; readSeq allocates remote-read message ids.
	rr      atomic.Uint64
	readSeq atomic.Uint64

	// sessions is the process's virtual session table (session-
	// multiplexed open loop; nil otherwise). sessBase is the id of
	// sessions[0]; replies carrying a session id resolve through it.
	sessions []*session
	sessBase uint64

	run *run
}

// sessionOf resolves a reply's session id to this process's session,
// or nil (no session flag, or another client's id — batched fan-in can
// only misroute if the transport breaks, and a nil just skips the
// per-session fold).
func (c *clientProc) sessionOf(m amcast.Message) *session {
	if m.Flags&amcast.FlagSession == 0 || len(c.sessions) == 0 {
		return nil
	}
	idx := m.Session - c.sessBase
	if idx >= uint64(len(c.sessions)) {
		return nil
	}
	return c.sessions[idx]
}

// readSeqBase puts remote-read message ids in their own space: above
// every worker's id space (worker << 24) and below the flush client's
// (1 << 38).
const readSeqBase = uint64(1) << 37

// foldRead raises the client's barrier at g to a read's serving
// watermark — the monotonic-reads half of the session guarantee (a
// later read at a lagging replica waits until it catches up to state
// this client has already seen).
func (c *clientProc) foldRead(g amcast.GroupID, watermark uint64) {
	c.mu.Lock()
	c.calls.Prefix.Fold(g, watermark)
	c.mu.Unlock()
}

// recordRead measures one synchronously served read (local or
// follower; remote reads are measured at reply completion instead).
// The read histogram records nanoseconds: the local fast path completes
// in hundreds of ns, which microsecond buckets truncate to zero.
func (c *clientProc) recordRead(start time.Time, replica int32) {
	if !c.run.measuring.Load() || start.Before(c.run.windowStart) {
		return
	}
	lat := time.Since(start).Nanoseconds()
	if lat < 0 {
		lat = 0
	}
	c.run.reads.Add(1)
	c.run.readHist.Record(uint64(lat))
	c.run.readByReplica[replica].Add(1)
}

// observedPrefix returns the client's delivered-prefix barrier for g.
func (c *clientProc) observedPrefix(g amcast.GroupID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls.Prefix.Prefix(g)
}

// post hands m to the batcher on the posting session's own goroutine and
// flushes: the request is with the transport when post returns. Posts
// racing a send queue on Batcher.mu and go out together in the next
// flush; mu is never held while sending (DESIGN.md §1b).
func (c *clientProc) post(m amcast.Message) {
	c.addRequest(m)
	c.batcher.FlushAll()
}

// postWoken is post for a session in the wave: its request waits in the
// batcher unless this is the wave's last post, whose flush sends the
// whole wave's requests.
func (c *clientProc) postWoken(m amcast.Message) {
	c.addRequest(m)
	c.leave()
}

// leave takes one session out of the wave, posting or not; the last one
// out flushes. Every request a woken session added precedes its own
// decrement, so the flush at zero sends all of them (DESIGN.md §1b).
func (c *clientProc) leave() {
	if c.wave.Add(-1) == 0 {
		c.batcher.FlushAll()
	}
}

func (c *clientProc) addRequest(m amcast.Message) {
	if m.Flags&amcast.FlagRead != 0 {
		// A remote read: straight to the serving node (no multicast
		// entry routing), with the client's barrier taken at send time —
		// at least as fresh as at issue time, so still read-your-writes.
		g := m.Dst[0]
		c.batcher.Add(amcast.GroupNode(g), amcast.Envelope{
			Kind: amcast.KindRead, From: c.id, Msg: m, TS: c.observedPrefix(g),
		})
		return
	}
	c.calls.Requests(m, c.batcher.Add)
}

func (c *clientProc) onReplies(envs []amcast.Envelope) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, env := range envs {
		call, progress := c.calls.Reply(env)
		if progress == client.NotReply {
			continue
		}
		if s := c.sessionOf(env.Msg); s != nil {
			// The session's own barrier advances on every reply carrying
			// its id — per-session read-your-writes over the shared conn.
			s.observe(env)
		}
		if progress != client.Completed {
			continue
		}
		tx := &call.Data
		if call.Diverged {
			// Involved groups reached different verdicts: the
			// deterministic one-shot execution contract is broken.
			c.run.execDiverged.Add(1)
		}
		if call.Unexecuted != amcast.NoGroup && c.run.cfg.Execute && !tx.silent {
			// An executing deployment replied without a verdict: that
			// shard never executed the transaction (partial execution) —
			// as hard a contract violation as diverging verdicts.
			c.run.execNoVerdict.Add(1)
		}
		if !tx.silent && !tx.isRead {
			c.run.tracer.Finish(env.Msg.ID)
		}
		if tx.sess != nil {
			tx.sess.release()
		}
		c.run.complete(call, now)
		if tx.done != nil {
			if c.holdWaves && !tx.silent && !tx.isRead {
				// A closed-loop write's session joins the wave; the
				// flush client's and remote reads' waiters do not.
				tx.woken = true
				c.wave.Add(1)
			}
			close(tx.done)
		}
	}
}

// expire abandons the waited-on calls issued before cutoff: each is
// marked timedOut and its waiter released, and a reply landing later is
// Stale. Open-loop calls (no waiter) stay: the execute-mode drain bounds
// them.
func (c *clientProc) expire(cutoff time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls.Sweep(func(call *client.Call[txState]) bool {
		tx := &call.Data
		if tx.done == nil || !tx.issued.Before(cutoff) {
			return false
		}
		tx.timedOut = true
		close(tx.done)
		return true
	})
}

// inflightLen reports the client's in-flight transaction count.
func (c *clientProc) inflightLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls.Len()
}

// issue opens one transaction's call and posts its request.
func (c *clientProc) issue(m amcast.Message, tx txState, closedLoop bool) *client.Call[txState] {
	call := c.open(m, tx, closedLoop)
	c.post(m)
	return call
}

// open opens one transaction's call — tx carries what the caller knows
// of it; open stamps the rest. The caller posts its request.
func (c *clientProc) open(m amcast.Message, tx txState, closedLoop bool) *client.Call[txState] {
	if closedLoop {
		tx.done = make(chan struct{})
	}
	c.mu.Lock()
	tx.issued = time.Now()
	call := c.calls.Issue(m, tx)
	c.mu.Unlock()
	if !tx.silent && !tx.isRead {
		// Trace records exist only for measured writes: Begin before the
		// request is sent, so no downstream stamp precedes it. Flush
		// multicasts (silent) and reads never begin a record, so their
		// ids' stamps are dropped at lookup.
		c.run.tracer.Begin(m.ID)
		if c.run.measuring.Load() {
			// Issued covers the multicast (write) path only; reads have
			// their own counters.
			c.run.issued.Add(1)
		}
	}
	return call
}
