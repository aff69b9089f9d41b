package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/deploy"
	"flexcast/internal/gtpcc"
	"flexcast/internal/store"
)

// doRead serves one read-only transaction under the configured
// routing, at the client's session barrier:
//
//   - Replicas <= 1: the PR 4 local fast path — the client is
//     co-located with the one serving node and reads it directly.
//   - FollowerReads: the client reads its local follower replica
//     (round-robin over the group's followers) through the lease gate;
//     an expired lease falls back to the remote serving node and is
//     counted.
//   - otherwise (the leader-only baseline): the client is NOT
//     co-located with the serving node — the read crosses the
//     transport as a KindRead transaction and the reply carries the
//     value and watermark back.
//
// Every serve folds the read's watermark into the session barrier
// (monotonic reads across replicas). wait selects closed-loop semantics
// for the remote form (wait for the reply); synchronous serves ignore
// it.
func (c *clientProc) doRead(gen *gtpcc.Gen, cfg Config, wait bool) error {
	tx := gen.NextRead()
	if cfg.Replicas <= 1 {
		ex := c.run.proto.Executors[tx.Home]
		if ex == nil {
			return fmt.Errorf("loadgen: no executor for warehouse %d", tx.Home)
		}
		start := time.Now()
		res, err := ex.Read(tx, c.observedPrefix(tx.Home), cfg.Timeout)
		if err != nil {
			return err
		}
		c.foldRead(tx.Home, res.Watermark)
		c.recordRead(start, 0)
		return nil
	}
	if cfg.FollowerReads {
		reps := c.run.proto.Followers[tx.Home]
		if len(reps) == 0 {
			return fmt.Errorf("loadgen: no follower replicas for warehouse %d", tx.Home)
		}
		rep := reps[c.rr.Add(1)%uint64(len(reps))]
		start := time.Now()
		res, err := rep.Read(tx, c.observedPrefix(tx.Home), cfg.Timeout)
		if err == nil {
			c.foldRead(tx.Home, res.Watermark)
			c.recordRead(start, rep.Idx())
			return nil
		}
		if !errors.Is(err, store.ErrLeaseExpired) {
			return err
		}
		c.run.leaseRefusals.Add(1)
		// Lease lapsed: fall back to the serving node, remotely.
	}
	return c.remoteRead(tx, cfg, wait)
}

// remoteRead ships one read to the serving node as a KindRead
// transaction. With wait (closed loop) it blocks for the reply; the
// reply's watermark folds into the session barrier via the ordinary
// reply path (onReplies), and completion lands in the read histogram
// (complete).
func (c *clientProc) remoteRead(tx gtpcc.Tx, cfg Config, wait bool) error {
	m := c.calls.Message(readSeqBase+c.readSeq.Add(1), []amcast.GroupID{tx.Home}, amcast.FlagRead, gtpcc.EncodeTx(tx))
	call := c.issue(m, txState{txType: tx.Type, isRead: true}, wait)
	if wait && await(call) {
		return fmt.Errorf("loadgen: client %d remote read %s to warehouse %d timed out after %v",
			c.idx, m.ID, tx.Home, cfg.Timeout)
	}
	return nil
}

// await blocks until a waited-on call completes or the run's sweep
// abandons it (expireLoop) and reports whether it timed out. One
// channel receive: no timer and no select per transaction.
func await(call *client.Call[txState]) bool {
	<-call.Data.done
	return call.Data.timedOut
}

// readLoop is one dedicated read-only session: reads back-to-back at
// the session barrier under the configured routing, measuring read
// capacity while the write workload runs alongside.
func readLoop(c *clientProc, worker int, cfg Config, stop <-chan struct{}, errCh chan<- error) {
	gen, err := newGen(c, cfg.Workers+worker, cfg)
	if err != nil {
		sendErr(errCh, err)
		return
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		if err := c.doRead(gen, cfg, true); err != nil {
			sendErr(errCh, err)
			return
		}
	}
}

// readRoll decides whether an iteration issues a fast-path read; the
// rng is private to the session, so the mix is deterministic per seed.
func readRoll(rng *rand.Rand, cfg Config) bool {
	return cfg.ReadPct > 0 && rng.Float64()*100 < cfg.ReadPct
}

// readRNG derives a session's read-mix coin; its stream is independent
// of the workload generator's.
func readRNG(cfg Config, client, worker int) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed ^ 0x5EED_BEEF + int64(client)*15485863 + int64(worker)*32452843))
}

// closedLoop is one session: issue, wait for every destination's reply,
// repeat. With a read mix, ReadPct percent of iterations issue a
// fast-path read instead of a multicast. stop ends the loop between
// transactions, never a wait.
func closedLoop(c *clientProc, worker int, cfg Config, stop <-chan struct{}, errCh chan<- error) {
	gen, err := newGen(c, worker, cfg)
	if err != nil {
		sendErr(errCh, err)
		return
	}
	reads := readRNG(cfg, c.idx, worker)
	seq := uint64(worker) << 24 // per-worker id space within the client
	for {
		select {
		case <-stop:
			return
		default:
		}
		if readRoll(reads, cfg) {
			if err := c.doRead(gen, cfg, true); err != nil {
				sendErr(errCh, err)
				return
			}
			continue
		}
		seq++
		m, meta := nextMessage(c, gen, cfg, seq)
		if await(c.issue(m, meta, true)) {
			sendErr(errCh, fmt.Errorf("loadgen: client %d worker %d: tx %s to %v timed out after %v",
				c.idx, worker, m.ID, m.Dst, cfg.Timeout))
			return
		}
	}
}

// openLoop issues at a fixed rate per client process, completions
// resolving asynchronously through the reply handler. Pacing is
// burst-based: a millisecond ticker issues however many transactions the
// elapsed time owes, so the offered rate is honored far beyond the
// ticker resolution. With -sessions the loop runs session-multiplexed
// instead (openLoopSessions).
func openLoop(c *clientProc, cfg Config, stop <-chan struct{}, errCh chan<- error) {
	if cfg.Sessions > 0 {
		openLoopSessions(c, cfg, stop, errCh)
		return
	}
	gen, err := newGen(c, 0, cfg)
	if err != nil {
		sendErr(errCh, err)
		return
	}
	reads := readRNG(cfg, c.idx, 0)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	start := time.Now()
	seq := uint64(0)
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			owed := uint64(cfg.Rate * now.Sub(start).Seconds())
			for seq < owed {
				seq++
				if readRoll(reads, cfg) {
					// A read slot: local and follower reads serve
					// synchronously and never occupy the outstanding
					// budget; remote reads issue asynchronously and
					// resolve through the reply handler (they do
					// occupy the in-flight table until answered).
					if err := c.doRead(gen, cfg, false); err != nil {
						sendErr(errCh, err)
						return
					}
					continue
				}
				if c.inflightLen() >= cfg.MaxOutstanding {
					if c.run.measuring.Load() {
						c.run.shed.Add(owed - seq + 1)
					}
					seq = owed
					break
				}
				m, meta := nextMessage(c, gen, cfg, seq)
				c.issue(m, meta, false)
			}
		}
	}
}

// openLoopSessions is the session-multiplexed open loop (-sessions):
// the process's offered rate splits evenly across its virtual sessions
// — round-robin, so the issue order over the shared connection
// interleaves sessions while each session's own requests stay FIFO —
// and every issuance passes that session's admission gate (token
// bucket + outstanding cap, admission.go). A refused issuance is shed
// on the spot and the loop moves on: one stalled session (its admitted
// transactions stuck behind a latency spike) cannot make the process
// queue work for it, and cannot stop the other sessions from issuing.
// Admitted requests carry the session id on the envelope (FlagSession),
// so replies resolve the session's barrier and outstanding slot.
func openLoopSessions(c *clientProc, cfg Config, stop <-chan struct{}, errCh chan<- error) {
	gen, err := newGen(c, 0, cfg)
	if err != nil {
		sendErr(errCh, err)
		return
	}
	reads := readRNG(cfg, c.idx, 0)
	gate := newAdmission(cfg)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	start := time.Now()
	seq := uint64(0)
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			owed := uint64(cfg.Rate * now.Sub(start).Seconds())
			nowNs := now.UnixNano()
			for seq < owed {
				seq++
				if readRoll(reads, cfg) {
					if err := c.doRead(gen, cfg, false); err != nil {
						sendErr(errCh, err)
						return
					}
					continue
				}
				s := c.sessions[seq%uint64(len(c.sessions))]
				if !gate.admit(s, nowNs) {
					if c.run.measuring.Load() {
						c.run.shed.Add(1)
					}
					continue
				}
				m, meta := nextMessage(c, gen, cfg, seq)
				m.Flags |= amcast.FlagSession
				m.Session = s.id
				meta.sess = s
				c.issue(m, meta, false)
			}
		}
	}
}

// flushLoop issues one FlagFlush multicast to all groups per period,
// waiting for delivery everywhere before the next (the distinguished
// flush process of §4.3). A flush that times out fails the run: a
// benchmark silently running without garbage collection would publish
// numbers for a different system.
func flushLoop(c *clientProc, cfg Config, proto *deploy.Deployment, stop <-chan struct{}, errCh chan<- error) {
	t := time.NewTicker(cfg.FlushEvery)
	defer t.Stop()
	seq := uint64(1) << 38 // clear of every worker's id space
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		seq++
		m := c.calls.Message(seq, append([]amcast.GroupID(nil), proto.Groups...), amcast.FlagFlush, nil)
		if await(c.issue(m, txState{silent: true}, true)) {
			sendErr(errCh, fmt.Errorf("loadgen: flush multicast %s timed out after %v (GC stalled)",
				m.ID, cfg.Timeout))
			return
		}
	}
}

// expireLoop enforces cfg.Timeout on every waited-on call: once per
// Timeout/8 it abandons the calls older than Timeout (clientProc.expire),
// whose sessions then fail the run naming the transaction.
func expireLoop(clients []*clientProc, timeout time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(max(timeout/8, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			for _, c := range clients {
				c.expire(now.Add(-timeout))
			}
		}
	}
}

func newGen(c *clientProc, worker int, cfg Config) (*gtpcc.Gen, error) {
	home := c.run.proto.Groups[c.idx%len(c.run.proto.Groups)]
	rng := rand.New(rand.NewSource(cfg.Seed + int64(c.idx)*7919 + int64(worker)*104729))
	return gtpcc.New(gtpcc.Config{
		Home:       home,
		Nearest:    c.run.proto.Nearest(home),
		Locality:   cfg.Locality,
		GlobalOnly: cfg.GlobalOnly,
		Zipf:       cfg.Zipf,
	}, rng)
}

func nextMessage(c *clientProc, gen *gtpcc.Gen, cfg Config, seq uint64) (amcast.Message, txState) {
	tx := gen.Next()
	m := c.calls.Message(seq, tx.Dst, 0, nil)
	if cfg.Execute {
		if cfg.PayloadSize > tx.PayloadSize {
			tx.PayloadSize = cfg.PayloadSize // padding only; detail wins otherwise
		}
		m.Payload = gtpcc.EncodeTx(tx)
		return m, txState{txType: tx.Type, amount: tx.Amount}
	}
	size := tx.PayloadSize
	if cfg.PayloadSize > 0 {
		size = cfg.PayloadSize
	}
	m.Payload = make([]byte, size)
	return m, txState{txType: tx.Type}
}

func sendErr(ch chan<- error, err error) {
	select {
	case ch <- err:
	default:
	}
}
