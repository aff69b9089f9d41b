// Package paxos implements multi-instance Paxos with a stable leader —
// the consensus substrate for state machine replication within a group
// (paper §4.4: "processes within a group are kept consistent using state
// machine replication … Paxos requires a majority of correct processes
// within each group and can tolerate message losses").
//
// The implementation is a deterministic message-passing state machine:
// replicas exchange Messages and are driven by explicit Tick calls, so
// the same code runs on the discrete-event simulator (where tests inject
// crashes, drops and delays) and over TCP.
//
// Protocol shape:
//
//   - Replica 0 starts as the presumed leader. A leader runs Phase 1
//     (Prepare/Promise) once for its ballot over the whole log suffix,
//     then Phase 2 (Accept/Accepted) per instance.
//   - Followers forward proposals to the leader. If a follower sees no
//     leader activity for ElectionTimeout ticks, it promotes itself with
//     a higher ballot (ballots are (counter, replica) pairs, so they are
//     totally ordered and proposer-unique).
//   - Decided values are learned via Decide broadcasts and delivered in
//     instance order through TakeDecisions.
//
// What a replica keeps: the decided values from Base() to Decided() in
// one slice, per-instance acceptor and proposer state only for the
// undecided window from Decided() on, and two ballots — the floor
// promise a Prepare makes for the whole log suffix, and the fold of the
// promises of every delivered instance. Accept, Accepted and Decide
// messages about an instance below Decided() are answered from those
// two ballots without any per-instance state (DESIGN.md §1i).
package paxos

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// ReplicaID identifies a replica within one group (0..n-1).
type ReplicaID int32

// InstanceID is a slot in the replicated log.
type InstanceID uint64

// Ballot is a totally ordered proposal number, unique per proposer.
type Ballot struct {
	Counter uint64
	Replica ReplicaID
}

// Less orders ballots lexicographically.
func (b Ballot) Less(o Ballot) bool {
	if b.Counter != o.Counter {
		return b.Counter < o.Counter
	}
	return b.Replica < o.Replica
}

// IsZero reports whether b is the zero ballot (never used by proposers).
func (b Ballot) IsZero() bool { return b.Counter == 0 && b.Replica == 0 }

// maxBallot returns the larger of two ballots.
func maxBallot(a, b Ballot) Ballot {
	if a.Less(b) {
		return b
	}
	return a
}

// MsgKind discriminates Paxos messages.
type MsgKind uint8

const (
	// MsgPropose carries a client value to the leader.
	MsgPropose MsgKind = iota + 1
	// MsgPrepare is Phase 1a: a candidate asks for promises from instance
	// Instance onward.
	MsgPrepare
	// MsgPromise is Phase 1b: an acceptor promises and reports previously
	// accepted values.
	MsgPromise
	// MsgAccept is Phase 2a.
	MsgAccept
	// MsgAccepted is Phase 2b.
	MsgAccepted
	// MsgNack rejects a stale ballot and reveals the newer one.
	MsgNack
	// MsgDecide announces a chosen value.
	MsgDecide
	// MsgHeartbeat is the leader's periodic liveness signal; it suppresses
	// follower elections.
	MsgHeartbeat
)

// String names the message kind.
func (k MsgKind) String() string {
	switch k {
	case MsgPropose:
		return "PROPOSE"
	case MsgPrepare:
		return "PREPARE"
	case MsgPromise:
		return "PROMISE"
	case MsgAccept:
		return "ACCEPT"
	case MsgAccepted:
		return "ACCEPTED"
	case MsgNack:
		return "NACK"
	case MsgDecide:
		return "DECIDE"
	case MsgHeartbeat:
		return "HEARTBEAT"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// accepted is one previously accepted (instance, ballot, value) triple
// reported in a Promise.
type accepted struct {
	Instance InstanceID
	Ballot   Ballot
	Value    []byte
}

// Message is one Paxos protocol message.
type Message struct {
	Kind     MsgKind
	From, To ReplicaID
	Ballot   Ballot
	Instance InstanceID
	Value    []byte
	// Accepted reports previously accepted values (Promise only).
	Accepted []accepted
}

// Decision is one chosen log entry.
type Decision struct {
	Instance InstanceID
	Value    []byte
}

// Config parameterizes a replica.
type Config struct {
	// ID is this replica's id.
	ID ReplicaID
	// N is the group size (replicas are 0..N-1, at most 64).
	N int
	// ElectionTimeout is the number of ticks without leader activity
	// before a follower promotes itself (default 10).
	ElectionTimeout int
}

// maxReplicas bounds N: a proposal's acks are one bit per replica.
const maxReplicas = 64

// Replica is one Paxos participant: proposer, acceptor and learner.
// Not safe for concurrent use; runtimes serialize access.
type Replica struct {
	cfg Config

	// log holds the decided values of instances base..nextDeliver-1;
	// nextDeliver is the in-order delivery cursor (Decided()).
	log         [][]byte
	nextDeliver InstanceID
	out         []Decision
	// win is the acceptor/proposer state of instances nextDeliver on.
	win window
	// done folds the promises of every delivered instance: what an
	// Accept for an instance below nextDeliver is answered against,
	// together with floor.
	done Ballot
	// scanned counts instance states visited by Phase 1 (maxPromised and
	// the Promise's report), so tests can bound a campaign's work.
	scanned uint64

	// Leadership.
	ballot      Ballot // current ballot when leading/campaigning
	leader      ReplicaID
	leading     bool
	campaigning bool
	promises    map[ReplicaID][]accepted
	// nextInstance is the first unused slot known to this leader.
	nextInstance InstanceID
	// pending holds values waiting to be assigned to instances.
	pending [][]byte
	// quietTicks counts ticks since the last leader activity.
	quietTicks int
	crashed    bool
	// outstanding holds values this replica forwarded to a leader and has
	// not yet seen decided; they are re-sent periodically so proposals
	// survive leader crashes (at-least-once semantics — the replicated
	// application must tolerate duplicates, which all engines in this
	// repository do).
	outstanding [][]byte
	retryTicks  int
	// floor is the highest promise made by a Prepare, which covers the
	// whole log suffix from its instance on: every instance's promise is
	// at least floor.
	floor Ballot
	// base is the truncation floor: instances below it were decided,
	// delivered and then dropped from memory because an application-level
	// snapshot covers them (TruncateBefore / InstallSnapshot). base never
	// exceeds nextDeliver, so truncation only ever discards the decided
	// contiguous prefix — consensus state for undecided instances is
	// never lost.
	base InstanceID
}

// NewReplica builds a replica; replica 0 boots as the presumed leader
// (it still runs Phase 1 before proposing).
func NewReplica(cfg Config) (*Replica, error) {
	if cfg.N < 1 || cfg.N > maxReplicas || int(cfg.ID) >= cfg.N || cfg.ID < 0 {
		return nil, fmt.Errorf("paxos: invalid replica id %d of %d (groups of 1..%d)", cfg.ID, cfg.N, maxReplicas)
	}
	if cfg.ElectionTimeout == 0 {
		cfg.ElectionTimeout = 10
	}
	return &Replica{cfg: cfg, leader: 0}, nil
}

// MustNewReplica is NewReplica for known-good configurations.
func MustNewReplica(cfg Config) *Replica {
	r, err := NewReplica(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// ID returns this replica's id.
func (r *Replica) ID() ReplicaID { return r.cfg.ID }

// Leader returns the replica currently believed to lead.
func (r *Replica) Leader() ReplicaID { return r.leader }

// IsLeader reports whether this replica has an established leadership.
func (r *Replica) IsLeader() bool { return r.leading }

// Crash makes the replica drop all future inputs (failure injection).
func (r *Replica) Crash() { r.crashed = true }

// Crashed reports whether the replica was crashed.
func (r *Replica) Crashed() bool { return r.crashed }

// Recover brings a crashed replica back. The acceptor state (promises,
// accepted values, decided log) is retained across the crash — the
// crash-recovery model of Paxos assumes it lives on stable storage — so
// rejoining with it is safe. The replica resumes as a follower; missed
// decisions are learned through CatchUp (state transfer from a live
// peer) or by accepting new instances.
func (r *Replica) Recover() {
	if !r.crashed {
		return
	}
	r.crashed = false
	r.leading = false
	r.campaigning = false
	r.quietTicks = 0
}

// DecidedLog returns the values of the retained contiguous decided
// prefix (instances Base()..Decided()-1) in instance order. This is the
// stable log a recovering replica replays into a fresh engine — after
// restoring the snapshot that covers everything below Base() — and the
// payload of state transfer between replicas (internal/smr).
func (r *Replica) DecidedLog() [][]byte { return r.SuffixFrom(r.base) }

// SuffixFrom returns the decided values of instances start..Decided()-1
// in order. start below the truncation floor is clamped to it — those
// entries no longer exist; the caller must ship a snapshot instead
// (Base() tells it where the retained log begins).
func (r *Replica) SuffixFrom(start InstanceID) [][]byte {
	if start < r.base {
		start = r.base
	}
	if start >= r.nextDeliver {
		return nil
	}
	return append([][]byte(nil), r.log[start-r.base:]...)
}

// CatchUp installs decided values for instances start, start+1, …
// learned from a peer's SuffixFrom (the caller passes the suffix it is
// missing). Entries this replica already decided are skipped; new ones
// are learned and surface through TakeDecisions in instance order.
func (r *Replica) CatchUp(start InstanceID, vals [][]byte) {
	for i, v := range vals {
		r.learn(start+InstanceID(i), v)
	}
}

// Base returns the truncation floor: the first instance whose value is
// still retained. Everything below it is covered by an application
// snapshot.
func (r *Replica) Base() InstanceID { return r.base }

// TruncateBefore drops the decided values of all instances below i,
// because an application-level snapshot now covers them (§4.3's
// flush-GC discipline applied to the Paxos log), and keeps no reference
// to them. i is clamped to the delivered prefix: undecided or
// undelivered instances are never truncated, so the operation cannot
// lose consensus state — only re-derivable history.
func (r *Replica) TruncateBefore(i InstanceID) {
	if i > r.nextDeliver {
		i = r.nextDeliver
	}
	if i <= r.base {
		return
	}
	rest := r.log[i-r.base:]
	if len(rest) <= cap(r.log)/4 {
		// Mostly dropped: move the suffix to an array of its own size.
		r.log = append([][]byte(nil), rest...)
	} else {
		n := copy(r.log, rest)
		clear(r.log[n:])
		r.log = r.log[:n]
	}
	r.base = i
}

// InstallSnapshot fast-forwards a lagging replica over instances below
// i: the caller has restored an application snapshot covering them, so
// their values are no longer needed and in-order delivery resumes at i.
// Decisions already queued for delivery below i are dropped (the
// snapshot supersedes them). No-op if the replica already delivered i.
func (r *Replica) InstallSnapshot(i InstanceID) {
	if i <= r.nextDeliver {
		r.TruncateBefore(i)
		return
	}
	r.log = nil
	for ; r.nextDeliver < i && r.win.n > 0; r.nextDeliver++ {
		r.done = maxBallot(r.done, r.win.slot(0).promised)
		r.win.drop()
	}
	kept := r.out[:0]
	for _, d := range r.out {
		if d.Instance >= i {
			kept = append(kept, d)
		}
	}
	r.out = kept
	r.base = i
	r.nextDeliver = i
	if r.nextInstance < i {
		r.nextInstance = i
	}
	// Deliver any decisions that were waiting on the gap the snapshot
	// just covered.
	r.deliverReady()
}

func (r *Replica) majority() int { return r.cfg.N/2 + 1 }

// inst returns the state of instance i >= Decided(), creating it.
func (r *Replica) inst(i InstanceID) *instState { return r.win.at(uint64(i - r.nextDeliver)) }

// peek returns the state of instance i >= Decided(), or nil if the
// replica never touched it.
func (r *Replica) peek(i InstanceID) *instState { return r.win.peek(uint64(i - r.nextDeliver)) }

// TakeDecisions returns chosen values in instance order (contiguous
// prefix) accumulated since the previous call.
func (r *Replica) TakeDecisions() []Decision {
	d := r.out
	r.out = nil
	return d
}

// Propose submits a value for replication. On a follower the value is
// forwarded to the believed leader; on the leader it is assigned to the
// next free instance once Phase 1 is complete.
func (r *Replica) Propose(value []byte) []Message {
	if r.crashed {
		return nil
	}
	if !r.leading {
		if r.leader == r.cfg.ID {
			// Believed leader but Phase 1 incomplete: queue and (re)start
			// the campaign.
			r.pending = append(r.pending, value)
			if !r.campaigning {
				return r.campaign()
			}
			return nil
		}
		r.outstanding = append(r.outstanding, value)
		return []Message{{Kind: MsgPropose, From: r.cfg.ID, To: r.leader, Value: value}}
	}
	r.pending = append(r.pending, value)
	return r.pump()
}

// Tick advances failure-detection time. Followers that observe no leader
// traffic for ElectionTimeout ticks start a campaign.
func (r *Replica) Tick() []Message {
	if r.crashed {
		return nil
	}
	var outs []Message
	if len(r.outstanding) > 0 {
		r.retryTicks++
		if r.retryTicks >= 2*r.cfg.ElectionTimeout {
			r.retryTicks = 0
			outs = append(outs, r.resendOutstanding()...)
		}
	}
	if r.leading {
		// Heartbeat to suppress follower elections.
		r.quietTicks++
		if r.quietTicks*3 >= r.cfg.ElectionTimeout {
			r.quietTicks = 0
			for p := 0; p < r.cfg.N; p++ {
				if ReplicaID(p) == r.cfg.ID {
					continue
				}
				outs = append(outs, Message{
					Kind: MsgHeartbeat, From: r.cfg.ID, To: ReplicaID(p), Ballot: r.ballot,
				})
			}
		}
		return outs
	}
	r.quietTicks++
	if r.quietTicks < r.cfg.ElectionTimeout {
		return outs
	}
	r.quietTicks = 0
	// Deterministic succession: the id right after the suspected leader
	// campaigns first; replicas further away wait progressively longer so
	// campaigns do not collide.
	gap := (int(r.cfg.ID) - int(r.leader) + r.cfg.N) % r.cfg.N
	if gap > 1 {
		r.quietTicks = -(gap - 1) * r.cfg.ElectionTimeout
		return outs
	}
	return append(outs, r.campaign()...)
}

// resendOutstanding retries forwarded-but-undecided values: a leader
// pumps them itself, a follower re-forwards to the current leader.
func (r *Replica) resendOutstanding() []Message {
	if r.leading {
		r.pending = append(r.pending, r.outstanding...)
		r.outstanding = nil
		return r.pump()
	}
	if r.leader == r.cfg.ID {
		return nil // campaign in progress; values resent on promotion
	}
	outs := make([]Message, 0, len(r.outstanding))
	for _, v := range r.outstanding {
		outs = append(outs, Message{Kind: MsgPropose, From: r.cfg.ID, To: r.leader, Value: v})
	}
	return outs
}

func (r *Replica) campaign() []Message {
	r.campaigning = true
	r.leading = false
	r.ballot = Ballot{Counter: r.ballot.Counter + 1, Replica: r.cfg.ID}
	r.promises = make(map[ReplicaID][]accepted)
	var outs []Message
	for p := 0; p < r.cfg.N; p++ {
		m := Message{
			Kind:     MsgPrepare,
			From:     r.cfg.ID,
			To:       ReplicaID(p),
			Ballot:   r.ballot,
			Instance: r.nextDeliver, // promises cover everything not yet delivered
		}
		if ReplicaID(p) == r.cfg.ID {
			outs = append(outs, r.onPrepare(m)...)
		} else {
			outs = append(outs, m)
		}
	}
	return outs
}

// OnMessage consumes one Paxos message and returns the messages to send.
func (r *Replica) OnMessage(m Message) []Message {
	if r.crashed {
		return nil
	}
	switch m.Kind {
	case MsgPropose:
		return r.Propose(m.Value)
	case MsgPrepare:
		return r.onPrepare(m)
	case MsgPromise:
		return r.onPromise(m)
	case MsgAccept:
		return r.onAccept(m)
	case MsgAccepted:
		return r.onAccepted(m)
	case MsgNack:
		return r.onNack(m)
	case MsgDecide:
		r.learn(m.Instance, m.Value)
		if m.From != r.cfg.ID {
			r.observeLeader(m.From)
		}
		return nil
	case MsgHeartbeat:
		if r.ballot.Less(m.Ballot) || (!r.leading && !r.campaigning) {
			r.ballot.Counter = m.Ballot.Counter
			r.observeLeader(m.From)
		}
		return nil
	default:
		return nil
	}
}

func (r *Replica) observeLeader(from ReplicaID) {
	r.quietTicks = 0
	r.leader = from
	if from != r.cfg.ID {
		r.leading = false
		r.campaigning = false
		// Values queued while this replica believed itself leader become
		// plain forwarded proposals, re-sent by the retry tick.
		r.outstanding = append(r.outstanding, r.pending...)
		r.pending = nil
	}
}

func (r *Replica) onPrepare(m Message) []Message {
	// A prepare covers all instances >= m.Instance.
	maxPromised := r.maxPromised()
	if m.Ballot.Less(maxPromised) {
		return []Message{{Kind: MsgNack, From: r.cfg.ID, To: m.From, Ballot: maxPromised}}
	}
	r.observeLeader(m.From)
	// Instances below Decided() are decided and never reported; the
	// window is in instance order, so the report is too.
	var acc []accepted
	for k := 0; k < r.win.n; k++ {
		r.scanned++
		st := r.win.slot(k)
		if i := r.nextDeliver + InstanceID(k); i >= m.Instance && !st.accepted.IsZero() && !st.decided {
			acc = append(acc, accepted{Instance: i, Ballot: st.accepted, Value: st.value})
		}
	}
	// The promise covers every instance from m.Instance on, those with
	// state included: each one's promise is at least floor.
	if r.floor.Less(m.Ballot) {
		r.floor = m.Ballot
	}
	reply := Message{
		Kind: MsgPromise, From: r.cfg.ID, To: m.From,
		Ballot: m.Ballot, Instance: m.Instance, Accepted: acc,
	}
	if m.From == r.cfg.ID {
		return r.onPromise(reply)
	}
	return []Message{reply}
}

// maxPromised is the highest promise this acceptor made for any
// instance: the floor, the fold of the delivered instances and the
// undecided window.
func (r *Replica) maxPromised() Ballot {
	max := maxBallot(r.floor, r.done)
	for k := 0; k < r.win.n; k++ {
		r.scanned++
		max = maxBallot(max, r.win.slot(k).promised)
	}
	return max
}

func (r *Replica) onPromise(m Message) []Message {
	if !r.campaigning || m.Ballot != r.ballot {
		return nil
	}
	r.promises[m.From] = m.Accepted
	if len(r.promises) < r.majority() {
		return nil
	}
	// Phase 1 complete: adopt the highest-ballot accepted value per
	// instance, then re-propose them, then pump pending values.
	r.campaigning = false
	r.leading = true
	r.leader = r.cfg.ID
	adopt := make(map[InstanceID]accepted)
	for _, accs := range r.promises {
		for _, a := range accs {
			cur, ok := adopt[a.Instance]
			if !ok || cur.Ballot.Less(a.Ballot) {
				adopt[a.Instance] = a
			}
		}
	}
	insts := make([]InstanceID, 0, len(adopt))
	for i := range adopt {
		insts = append(insts, i)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	var outs []Message
	for _, i := range insts {
		if i >= r.nextInstance {
			r.nextInstance = i + 1
		}
		outs = append(outs, r.propose(i, adopt[i].Value)...)
	}
	if r.nextInstance < r.nextDeliver {
		r.nextInstance = r.nextDeliver
	}
	// Values this replica forwarded to the previous leader are now its
	// own responsibility.
	r.pending = append(r.pending, r.outstanding...)
	r.outstanding = nil
	outs = append(outs, r.pump()...)
	return outs
}

// pump assigns pending values to fresh instances.
func (r *Replica) pump() []Message {
	var outs []Message
	for i := 0; i < len(r.pending); i++ {
		v := r.pending[i]
		r.pending[i] = nil
		for r.taken(r.nextInstance) {
			r.nextInstance++
		}
		if outs == nil {
			outs = r.propose(r.nextInstance, v)
		} else {
			outs = append(outs, r.propose(r.nextInstance, v)...)
		}
		r.nextInstance++
	}
	r.pending = r.pending[:0]
	return outs
}

// taken reports whether instance i is decided or carries a proposal of
// this replica.
func (r *Replica) taken(i InstanceID) bool {
	if i < r.nextDeliver {
		return true
	}
	st := r.peek(i)
	return st != nil && (st.decided || st.inFlight)
}

func (r *Replica) propose(i InstanceID, v []byte) []Message {
	if i < r.nextDeliver {
		return nil // decided
	}
	st := r.inst(i)
	if st.decided {
		return nil
	}
	st.inFlight = true
	st.acks = 0
	outs := make([]Message, 0, r.cfg.N)
	for p := 0; p < r.cfg.N; p++ {
		m := Message{
			Kind: MsgAccept, From: r.cfg.ID, To: ReplicaID(p),
			Ballot: r.ballot, Instance: i, Value: v,
		}
		if ReplicaID(p) == r.cfg.ID {
			outs = append(outs, r.onAccept(m)...)
		} else {
			outs = append(outs, m)
		}
	}
	return outs
}

func (r *Replica) onAccept(m Message) []Message {
	// An instance below Decided() is decided and holds no state: the
	// chosen value is fixed and learn() ignores re-decisions, so a
	// retransmission is acked — unless its ballot is below a promise this
	// replica made (the floor, or one folded in when an instance was
	// delivered): acking would hand a deposed leader a bogus quorum vote
	// and flip this replica's leader pointer off the current leader.
	var st *instState
	promised := maxBallot(r.floor, r.done)
	if m.Instance >= r.nextDeliver {
		st = r.inst(m.Instance)
		promised = maxBallot(st.promised, r.floor)
	}
	if m.Ballot.Less(promised) {
		return []Message{{Kind: MsgNack, From: r.cfg.ID, To: m.From, Ballot: promised}}
	}
	if st == nil {
		r.done = m.Ballot // the ack is a promise, as an undecided instance's would be
	} else {
		st.promised = m.Ballot
		st.accepted = m.Ballot
		if !st.decided {
			st.value = m.Value // a decided instance keeps its chosen value
		}
	}
	r.observeLeader(m.From)
	reply := Message{
		Kind: MsgAccepted, From: r.cfg.ID, To: m.From,
		Ballot: m.Ballot, Instance: m.Instance,
	}
	if m.From == r.cfg.ID {
		return r.onAccepted(reply)
	}
	return []Message{reply}
}

func (r *Replica) onAccepted(m Message) []Message {
	if !r.leading || m.Ballot != r.ballot || m.Instance < r.nextDeliver {
		return nil
	}
	st := r.peek(m.Instance)
	if st == nil || !st.inFlight {
		return nil // decided, or not proposed by this replica
	}
	st.acks |= 1 << uint(m.From)
	if bits.OnesCount64(st.acks) < r.majority() {
		return nil
	}
	// Chosen: learn locally and broadcast the decision.
	v := st.value
	r.learn(m.Instance, v)
	outs := make([]Message, 0, r.cfg.N-1)
	for p := 0; p < r.cfg.N; p++ {
		if ReplicaID(p) == r.cfg.ID {
			continue
		}
		outs = append(outs, Message{
			Kind: MsgDecide, From: r.cfg.ID, To: ReplicaID(p),
			Instance: m.Instance, Value: v,
		})
	}
	return outs
}

func (r *Replica) onNack(m Message) []Message {
	// A higher ballot exists: step down; a future tick may campaign with
	// a higher counter.
	if r.ballot.Less(m.Ballot) {
		r.ballot.Counter = m.Ballot.Counter
		r.leading = false
		r.campaigning = false
		if m.Ballot.Replica != r.cfg.ID {
			r.observeLeader(m.Ballot.Replica)
		}
	}
	return nil
}

func (r *Replica) learn(i InstanceID, v []byte) {
	if i < r.nextDeliver {
		// Already decided — and, below Base(), covered by the snapshot
		// that justified the truncation.
		return
	}
	st := r.inst(i)
	if st.decided {
		return
	}
	st.decided = true
	st.inFlight = false
	st.value = v
	for idx, ov := range r.outstanding {
		if bytes.Equal(ov, v) {
			r.outstanding = slices.Delete(r.outstanding, idx, idx+1)
			break
		}
	}
	r.deliverReady()
}

// deliverReady delivers the decided instances at the front of the
// window: each value moves to the log, its promise folds into done and
// its state is dropped.
func (r *Replica) deliverReady() {
	for r.win.n > 0 {
		st := r.win.slot(0)
		if !st.decided {
			return
		}
		r.done = maxBallot(r.done, st.promised)
		r.log = append(r.log, st.value)
		r.out = append(r.out, Decision{Instance: r.nextDeliver, Value: st.value})
		r.win.drop()
		r.nextDeliver++
	}
}

// Decided reports how many log entries were delivered in order.
func (r *Replica) Decided() InstanceID { return r.nextDeliver }
