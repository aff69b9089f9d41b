package paxos

// The reference model for the differential tests (differential_test.go):
// the map-based Replica this package had before its state became a
// decided-value slice and an undecided window. Only the type names and
// three amendments differ, each marked: the ballot forgotten, pump's
// skip of the truncated range, and the election fix (a Promise reports
// decided instances, an Accept for one is answered with the Decide). Message, Ballot and the other wire types
// are shared, so both implementations answer in the same vocabulary.

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
)

type modelInst struct {
	promised Ballot
	accepted Ballot
	value    []byte
	// proposer bookkeeping (leader only)
	acks     map[ReplicaID]bool
	decided  bool
	inFlight bool
}

// modelReplica is the earlier Replica, verbatim but for its name: one
// Paxos participant whose per-instance state lives in two maps that keep
// every instance it ever decided.
type modelReplica struct {
	cfg Config

	// Acceptor/learner state per instance.
	insts map[InstanceID]*modelInst
	// decidedLog holds chosen values; nextDeliver is the in-order cursor.
	decidedVals map[InstanceID][]byte
	nextDeliver InstanceID
	out         []Decision

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
	// floor is the highest promise covering instances that have no
	// per-instance state yet (a Prepare promises a whole log suffix);
	// floorFrom is the first instance it covers.
	floor     Ballot
	floorFrom InstanceID
	// forgotten amends the earlier code: the highest promise of any
	// instance whose state it dropped (TruncateBefore, InstallSnapshot)
	// or answered without state (an Accept below base). The earlier code
	// forgot those promises; maxPromised reads this ballot so the model
	// refuses the Prepares the Replica refuses (DESIGN.md §1i).
	forgotten Ballot
	// base is the truncation floor: instances below it were decided,
	// delivered and then dropped from memory because an application-level
	// snapshot covers them (TruncateBefore / InstallSnapshot). base never
	// exceeds nextDeliver, so truncation only ever discards the decided
	// contiguous prefix — consensus state for undecided instances is
	// never lost.
	base InstanceID
}

// newModel builds a model replica; replica 0 boots as the presumed
// leader (it still runs Phase 1 before proposing).
func newModel(cfg Config) (*modelReplica, error) {
	if cfg.N < 1 || int(cfg.ID) >= cfg.N || cfg.ID < 0 {
		return nil, fmt.Errorf("paxos: invalid replica id %d of %d", cfg.ID, cfg.N)
	}
	if cfg.ElectionTimeout == 0 {
		cfg.ElectionTimeout = 10
	}
	r := &modelReplica{
		cfg:         cfg,
		insts:       make(map[InstanceID]*modelInst),
		decidedVals: make(map[InstanceID][]byte),
		leader:      0,
	}
	return r, nil
}

// ID returns this replica's id.
func (r *modelReplica) ID() ReplicaID { return r.cfg.ID }

// Leader returns the replica currently believed to lead.
func (r *modelReplica) Leader() ReplicaID { return r.leader }

// IsLeader reports whether this replica has an established leadership.
func (r *modelReplica) IsLeader() bool { return r.leading }

// Crash makes the replica drop all future inputs (failure injection).
func (r *modelReplica) Crash() { r.crashed = true }

// Crashed reports whether the replica was crashed.
func (r *modelReplica) Crashed() bool { return r.crashed }

// Recover brings a crashed replica back. The acceptor state (promises,
// accepted values, decided log) is retained across the crash — the
// crash-recovery model of Paxos assumes it lives on stable storage — so
// rejoining with it is safe. The replica resumes as a follower; missed
// decisions are learned through CatchUp (state transfer from a live
// peer) or by accepting new instances.
func (r *modelReplica) Recover() {
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
func (r *modelReplica) DecidedLog() [][]byte { return r.SuffixFrom(r.base) }

// SuffixFrom returns the decided values of instances start..Decided()-1
// in order. start below the truncation floor is clamped to it — those
// entries no longer exist; the caller must ship a snapshot instead
// (Base() tells it where the retained log begins).
func (r *modelReplica) SuffixFrom(start InstanceID) [][]byte {
	if start < r.base {
		start = r.base
	}
	if start >= r.nextDeliver {
		return nil
	}
	log := make([][]byte, 0, r.nextDeliver-start)
	for i := start; i < r.nextDeliver; i++ {
		log = append(log, r.decidedVals[i])
	}
	return log
}

// CatchUp installs decided values for instances start, start+1, …
// learned from a peer's SuffixFrom (the caller passes the suffix it is
// missing). Entries this replica already decided are skipped; new ones
// are learned and surface through TakeDecisions in instance order.
func (r *modelReplica) CatchUp(start InstanceID, vals [][]byte) {
	for i, v := range vals {
		r.learn(start+InstanceID(i), v)
	}
}

// Base returns the truncation floor: the first instance whose value is
// still retained. Everything below it is covered by an application
// snapshot.
func (r *modelReplica) Base() InstanceID { return r.base }

// TruncateBefore drops the decided values and acceptor state of all
// instances below i, because an application-level snapshot now covers
// them (§4.3's flush-GC discipline applied to the Paxos log). i is
// clamped to the delivered prefix: undecided or undelivered instances
// are never truncated, so the operation cannot lose consensus state —
// only re-derivable history.
func (r *modelReplica) TruncateBefore(i InstanceID) {
	if i > r.nextDeliver {
		i = r.nextDeliver
	}
	if i <= r.base {
		return
	}
	for j := r.base; j < i; j++ {
		delete(r.decidedVals, j)
		if st, ok := r.insts[j]; ok && r.forgotten.Less(st.promised) {
			r.forgotten = st.promised
		}
		delete(r.insts, j)
	}
	r.base = i
}

// InstallSnapshot fast-forwards a lagging replica over instances below
// i: the caller has restored an application snapshot covering them, so
// their values are no longer needed and in-order delivery resumes at i.
// Decisions already queued for delivery below i are dropped (the
// snapshot supersedes them). No-op if the replica already delivered i.
func (r *modelReplica) InstallSnapshot(i InstanceID) {
	if i <= r.nextDeliver {
		r.TruncateBefore(i)
		return
	}
	for j := r.base; j < i; j++ {
		delete(r.decidedVals, j)
		if st, ok := r.insts[j]; ok && r.forgotten.Less(st.promised) {
			r.forgotten = st.promised
		}
		delete(r.insts, j)
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
	for {
		val, ok := r.decidedVals[r.nextDeliver]
		if !ok {
			break
		}
		r.out = append(r.out, Decision{Instance: r.nextDeliver, Value: val})
		r.nextDeliver++
	}
}

func (r *modelReplica) majority() int { return r.cfg.N/2 + 1 }

func (r *modelReplica) inst(i InstanceID) *modelInst {
	st, ok := r.insts[i]
	if !ok {
		st = &modelInst{}
		if i >= r.floorFrom {
			// New instances inherit the promise made for the whole log
			// suffix during Phase 1.
			st.promised = r.floor
		}
		r.insts[i] = st
	}
	return st
}

// TakeDecisions returns chosen values in instance order (contiguous
// prefix) accumulated since the previous call.
func (r *modelReplica) TakeDecisions() []Decision {
	d := r.out
	r.out = nil
	return d
}

// Propose submits a value for replication. On a follower the value is
// forwarded to the believed leader; on the leader it is assigned to the
// next free instance once Phase 1 is complete.
func (r *modelReplica) Propose(value []byte) []Message {
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
func (r *modelReplica) Tick() []Message {
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
func (r *modelReplica) resendOutstanding() []Message {
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

func (r *modelReplica) campaign() []Message {
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
func (r *modelReplica) OnMessage(m Message) []Message {
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
		// Amended (election fix): only a leader's broadcast (zero
		// ballot) names the leader; an acceptor's answer to an Accept
		// carries that Accept's ballot.
		if m.From != r.cfg.ID && m.Ballot.IsZero() {
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

func (r *modelReplica) observeLeader(from ReplicaID) {
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

func (r *modelReplica) onPrepare(m Message) []Message {
	// A prepare covers all instances >= m.Instance.
	maxPromised := r.maxPromised()
	if m.Ballot.Less(maxPromised) {
		return []Message{{Kind: MsgNack, From: r.cfg.ID, To: m.From, Ballot: maxPromised}}
	}
	// Amended (election fix): the earlier code promised from below base
	// and left decided instances out of the report, so a candidate that
	// missed a decision could choose another value for it (DESIGN.md
	// §1i). A Prepare from below base gets no promise, and the report
	// carries every decided instance with its chosen value.
	if m.Instance < r.base {
		return nil
	}
	r.observeLeader(m.From)
	var acc []accepted
	for i, st := range r.insts {
		if i >= m.Instance {
			if st.promised.Less(m.Ballot) {
				st.promised = m.Ballot
			}
			if st.decided {
				acc = append(acc, accepted{Instance: i, Value: r.decidedVals[i], Decided: true})
			} else if !st.accepted.IsZero() {
				acc = append(acc, accepted{Instance: i, Ballot: st.accepted, Value: st.value})
			}
		}
	}
	// Remember the floor promise for instances not yet materialized.
	r.inst(m.Instance) // ensure at least the floor instance exists
	r.floorPromise(m.Ballot, m.Instance)
	sort.Slice(acc, func(i, j int) bool { return acc[i].Instance < acc[j].Instance })
	reply := Message{
		Kind: MsgPromise, From: r.cfg.ID, To: m.From,
		Ballot: m.Ballot, Instance: m.Instance, Accepted: acc,
	}
	if m.From == r.cfg.ID {
		return r.onPromise(reply)
	}
	return []Message{reply}
}

func (r *modelReplica) floorPromise(b Ballot, from InstanceID) {
	// Materialized lazily: any instance created later inherits the floor.
	if r.floor.Less(b) {
		r.floor = b
		r.floorFrom = from
	}
}

func (r *modelReplica) maxPromised() Ballot {
	max := r.floor
	if max.Less(r.forgotten) {
		max = r.forgotten
	}
	for _, st := range r.insts {
		if max.Less(st.promised) {
			max = st.promised
		}
	}
	return max
}

func (r *modelReplica) onPromise(m Message) []Message {
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
			// Amended (election fix): a decided value wins.
			if cur, ok := adopt[a.Instance]; !ok || !cur.Decided && (a.Decided || cur.Ballot.Less(a.Ballot)) {
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
func (r *modelReplica) pump() []Message {
	var outs []Message
	for len(r.pending) > 0 {
		v := r.pending[0]
		r.pending = r.pending[1:]
		// Amended: the earlier code did not skip instances below base, so a
		// leader elected while lagging, then truncated past its next free
		// instance, proposed into the truncated range, where nothing it
		// is answered can decide the value (DESIGN.md §1i).
		for r.nextInstance < r.base || r.insts[r.nextInstance] != nil && (r.insts[r.nextInstance].decided || r.insts[r.nextInstance].inFlight) {
			r.nextInstance++
		}
		outs = append(outs, r.propose(r.nextInstance, v)...)
		r.nextInstance++
	}
	return outs
}

func (r *modelReplica) propose(i InstanceID, v []byte) []Message {
	st := r.inst(i)
	if st.decided {
		return nil
	}
	st.inFlight = true
	st.acks = make(map[ReplicaID]bool)
	var outs []Message
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

func (r *modelReplica) onAccept(m Message) []Message {
	if m.Instance < r.base {
		// Decided and truncated. Ballots below the promise floor are
		// Nacked like the normal path: acking would hand a deposed leader
		// a bogus quorum vote and flip this replica's leader pointer off
		// the current leader. Amended (election fix): any other Accept is
		// not acked — the value it would vote for need not be the chosen
		// one, and the chosen one is in a snapshot, not here.
		if m.Ballot.Less(r.floor) {
			return []Message{{Kind: MsgNack, From: r.cfg.ID, To: m.From, Ballot: r.floor}}
		}
		r.observeLeader(m.From)
		return nil
	}
	st := r.inst(m.Instance)
	promised := st.promised
	if promised.Less(r.floor) {
		promised = r.floor
	}
	if m.Ballot.Less(promised) {
		return []Message{{Kind: MsgNack, From: r.cfg.ID, To: m.From, Ballot: promised}}
	}
	r.observeLeader(m.From)
	if st.decided {
		// Amended (election fix): answered with the Decide, not an ack.
		return []Message{{Kind: MsgDecide, From: r.cfg.ID, To: m.From, Ballot: m.Ballot, Instance: m.Instance, Value: r.decidedVals[m.Instance]}}
	}
	st.promised = m.Ballot
	st.accepted = m.Ballot
	st.value = m.Value
	reply := Message{
		Kind: MsgAccepted, From: r.cfg.ID, To: m.From,
		Ballot: m.Ballot, Instance: m.Instance,
	}
	if m.From == r.cfg.ID {
		return r.onAccepted(reply)
	}
	return []Message{reply}
}

func (r *modelReplica) onAccepted(m Message) []Message {
	if !r.leading || m.Ballot != r.ballot || m.Instance < r.base {
		return nil
	}
	st := r.inst(m.Instance)
	if st.decided || st.acks == nil {
		return nil
	}
	st.acks[m.From] = true
	if len(st.acks) < r.majority() {
		return nil
	}
	// Chosen: learn locally and broadcast the decision.
	v := st.value
	r.learn(m.Instance, v)
	var outs []Message
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

func (r *modelReplica) onNack(m Message) []Message {
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

func (r *modelReplica) learn(i InstanceID, v []byte) {
	if i < r.base {
		// A late Decide for a truncated instance: already covered by the
		// snapshot that justified the truncation; resurrecting its state
		// would leak below the floor.
		return
	}
	st := r.inst(i)
	if st.decided {
		return
	}
	st.decided = true
	st.inFlight = false
	st.value = v
	r.decidedVals[i] = v
	for idx, ov := range r.outstanding {
		if bytes.Equal(ov, v) {
			r.outstanding = append(r.outstanding[:idx], r.outstanding[idx+1:]...)
			break
		}
	}
	for {
		val, ok := r.decidedVals[r.nextDeliver]
		if !ok {
			break
		}
		r.out = append(r.out, Decision{Instance: r.nextDeliver, Value: val})
		r.nextDeliver++
	}
}

// Decided reports how many log entries were delivered in order.
func (r *modelReplica) Decided() InstanceID { return r.nextDeliver }

// clone deep-copies the model, so a test can ask how it would answer a
// message without letting the answer change it.
func (r *modelReplica) clone() *modelReplica {
	c := *r
	c.insts = make(map[InstanceID]*modelInst, len(r.insts))
	for i, st := range r.insts {
		cp := *st
		if st.acks != nil {
			cp.acks = maps.Clone(st.acks)
		}
		c.insts[i] = &cp
	}
	c.decidedVals = maps.Clone(r.decidedVals)
	c.promises = maps.Clone(r.promises)
	c.out = slices.Clone(r.out)
	c.pending = slices.Clone(r.pending)
	c.outstanding = slices.Clone(r.outstanding)
	return &c
}
