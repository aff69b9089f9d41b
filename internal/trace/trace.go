// Package trace records protocol runs and checks them against the atomic
// multicast specification of the paper's §2.2: Validity, Agreement,
// Integrity, Prefix Order and Acyclic Order, plus the Minimality property
// that defines genuineness. Tests run random workloads through each
// protocol and hand the recorded run to the checkers.
package trace

import (
	"fmt"
	"sort"

	"flexcast/amcast"
)

// Send is one recorded transmission.
type Send struct {
	From, To amcast.NodeID
	Kind     amcast.Kind
	MsgID    amcast.MsgID
}

// Recorder accumulates one run. Not safe for concurrent use; the
// simulator is single-threaded and tests own the recorder.
type Recorder struct {
	multicast map[amcast.MsgID]amcast.Message
	// seqs[g] is g's delivery sequence in order.
	seqs map[amcast.GroupID][]amcast.MsgID
	// pos[g][id] is the index of id in seqs[g].
	pos   map[amcast.GroupID]map[amcast.MsgID]int
	sends []Send
}

// NewRecorder returns an empty run recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		multicast: make(map[amcast.MsgID]amcast.Message),
		seqs:      make(map[amcast.GroupID][]amcast.MsgID),
		pos:       make(map[amcast.GroupID]map[amcast.MsgID]int),
	}
}

// OnMulticast records a client multicast.
func (r *Recorder) OnMulticast(m amcast.Message) {
	r.multicast[m.ID] = m
}

// OnDeliver records a delivery. It returns an error immediately when the
// same group delivers the same message twice (the first half of
// Integrity), because later checks assume unique positions.
func (r *Recorder) OnDeliver(d amcast.Delivery) error {
	p, ok := r.pos[d.Group]
	if !ok {
		p = make(map[amcast.MsgID]int)
		r.pos[d.Group] = p
	}
	if _, dup := p[d.Msg.ID]; dup {
		return fmt.Errorf("integrity: group %d delivered message %s twice", d.Group, d.Msg.ID)
	}
	p[d.Msg.ID] = len(r.seqs[d.Group])
	r.seqs[d.Group] = append(r.seqs[d.Group], d.Msg.ID)
	return nil
}

// OnSend records a transmission for the minimality audit.
func (r *Recorder) OnSend(from, to amcast.NodeID, env amcast.Envelope) {
	r.sends = append(r.sends, Send{From: from, To: to, Kind: env.Kind, MsgID: env.Msg.ID})
}

// Multicasts returns the number of recorded multicasts.
func (r *Recorder) Multicasts() int { return len(r.multicast) }

// Sends returns the number of recorded transmissions.
func (r *Recorder) Sends() int { return len(r.sends) }

// Message returns the recorded multicast for id, and whether one exists.
// Failure analysis uses it to recover a cycle member's destination set.
func (r *Recorder) Message(id amcast.MsgID) (amcast.Message, bool) {
	m, ok := r.multicast[id]
	return m, ok
}

// Groups returns the groups that delivered at least one message, sorted.
func (r *Recorder) Groups() []amcast.GroupID {
	gs := make([]amcast.GroupID, 0, len(r.seqs))
	for g := range r.seqs {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	return gs
}

// Deliveries returns the total number of recorded deliveries.
func (r *Recorder) Deliveries() int {
	n := 0
	for _, s := range r.seqs {
		n += len(s)
	}
	return n
}

// Sequence returns group g's delivery order.
func (r *Recorder) Sequence(g amcast.GroupID) []amcast.MsgID {
	return append([]amcast.MsgID(nil), r.seqs[g]...)
}

// CheckIntegrity verifies that every delivery was (i) at most once per
// group (enforced on record), (ii) at a destination of the message, and
// (iii) of a message that was previously multicast.
func (r *Recorder) CheckIntegrity() error {
	for g, seq := range r.seqs {
		for _, id := range seq {
			m, ok := r.multicast[id]
			if !ok {
				return fmt.Errorf("integrity: group %d delivered never-multicast message %s", g, id)
			}
			if !m.HasDst(g) {
				return fmt.Errorf("integrity: group %d delivered message %s addressed to %v", g, id, m.Dst)
			}
		}
	}
	return nil
}

// CheckAgreement verifies that, at the end of a quiesced run, every
// multicast message was delivered by all of its destinations (Validity
// plus Agreement for runs without failures).
func (r *Recorder) CheckAgreement() error {
	ids := make([]amcast.MsgID, 0, len(r.multicast))
	for id := range r.multicast {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m := r.multicast[id]
		for _, g := range m.Dst {
			if _, ok := r.pos[g][id]; !ok {
				return fmt.Errorf("agreement: message %s (dst %v) not delivered at group %d", id, m.Dst, g)
			}
		}
	}
	return nil
}

// CheckPrefixOrder verifies the paper's prefix-order property: any two
// messages sharing two or more destination groups are delivered in the
// same relative order at every common destination that delivered both.
//
// Implementation: for every pair of groups (g, h), take the messages
// delivered by both in g's delivery order; their positions in h's order
// must be strictly increasing. Any inversion is a pair delivered in
// opposite orders. This is O(common · log) per group pair instead of the
// naive O(n²) over message pairs.
func (r *Recorder) CheckPrefixOrder() error {
	groups := make([]amcast.GroupID, 0, len(r.seqs))
	for g := range r.seqs {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	for i, g := range groups {
		for _, h := range groups[i+1:] {
			if err := r.checkPairOrder(g, h); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *Recorder) checkPairOrder(g, h amcast.GroupID) error {
	posH := r.pos[h]
	lastPos := -1
	var lastID amcast.MsgID
	for _, id := range r.seqs[g] {
		p, ok := posH[id]
		if !ok {
			continue
		}
		if p < lastPos {
			return fmt.Errorf("prefix order: groups %d and %d deliver %s and %s in opposite orders",
				g, h, lastID, id)
		}
		lastPos, lastID = p, id
	}
	return nil
}

// CheckAcyclicOrder verifies that the global relation ≺ ("delivered
// before at some group") is acyclic, by cycle-detecting the union of the
// per-group delivery chains.
func (r *Recorder) CheckAcyclicOrder() error {
	succ := make(map[amcast.MsgID]map[amcast.MsgID]bool)
	for _, seq := range r.seqs {
		for i := 0; i+1 < len(seq); i++ {
			s, ok := succ[seq[i]]
			if !ok {
				s = make(map[amcast.MsgID]bool)
				succ[seq[i]] = s
			}
			s[seq[i+1]] = true
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[amcast.MsgID]int)
	var visit func(id amcast.MsgID) error
	visit = func(id amcast.MsgID) error {
		color[id] = gray
		for s := range succ[id] {
			switch color[s] {
			case gray:
				return fmt.Errorf("acyclic order: delivery cycle through %s and %s", id, s)
			case white:
				if err := visit(s); err != nil {
					return err
				}
			}
		}
		color[id] = black
		return nil
	}
	for id := range succ {
		if color[id] == white {
			if err := visit(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckMinimality audits FlexCast's genuineness argument (§4.1.1):
//
//   - MSG and ACK envelopes about m flow only between m's destinations,
//     except ACKs from groups that were notified about m;
//   - a NOTIF about m from g to h is allowed only when h is not a
//     destination of m and some message addressed to h was multicast in
//     the run — the Minimality property's justification for h receiving
//     traffic (§2.2: a process receives a message only if some multicast
//     in the run names it).
//
// Skeen's protocol passes trivially (TS only between destinations); the
// hierarchical protocol fails it by design.
func (r *Recorder) CheckMinimality() error {
	notified := make(map[amcast.MsgID]map[amcast.GroupID]bool)
	// isDst[g] reports whether any multicast in the run addresses g.
	isDst := make(map[amcast.GroupID]bool)
	for _, m := range r.multicast {
		for _, g := range m.Dst {
			isDst[g] = true
		}
	}
	for _, s := range r.sends {
		m, known := r.multicast[s.MsgID]
		switch s.Kind {
		case amcast.KindRequest:
			if known && !s.To.IsClient() && !m.HasDst(s.To.Group()) {
				return fmt.Errorf("minimality: request for %s sent to non-destination %s", s.MsgID, s.To)
			}
		case amcast.KindMsg:
			if known && !s.To.IsClient() && !m.HasDst(s.To.Group()) {
				return fmt.Errorf("minimality: MSG %s sent to non-destination %s", s.MsgID, s.To)
			}
		case amcast.KindAck:
			if !known || s.To.IsClient() || s.From.IsClient() {
				continue
			}
			fromOK := m.HasDst(s.From.Group()) || notified[s.MsgID][s.From.Group()]
			if !fromOK {
				return fmt.Errorf("minimality: ACK for %s from non-destination, non-notified %s", s.MsgID, s.From)
			}
			if !m.HasDst(s.To.Group()) {
				return fmt.Errorf("minimality: ACK for %s sent to non-destination %s", s.MsgID, s.To)
			}
		case amcast.KindNotif:
			if known && !s.To.IsClient() && m.HasDst(s.To.Group()) {
				return fmt.Errorf("minimality: NOTIF for %s sent to destination %s", s.MsgID, s.To)
			}
			if !s.To.IsClient() && !isDst[s.To.Group()] {
				return fmt.Errorf("minimality: NOTIF for %s sent to %s, which no multicast in the run addresses",
					s.MsgID, s.To)
			}
			n, ok := notified[s.MsgID]
			if !ok {
				n = make(map[amcast.GroupID]bool)
				notified[s.MsgID] = n
			}
			n[s.To.Group()] = true
		}
	}
	return nil
}

// CheckAll runs every specification check appropriate for a quiesced,
// failure-free run. minimality selects whether the genuineness audit runs
// (it must be false for the hierarchical protocol).
func (r *Recorder) CheckAll(minimality bool) error {
	if err := r.CheckIntegrity(); err != nil {
		return err
	}
	if err := r.CheckAgreement(); err != nil {
		return err
	}
	if err := r.CheckPrefixOrder(); err != nil {
		return err
	}
	if err := r.CheckAcyclicOrder(); err != nil {
		return err
	}
	if minimality {
		return r.CheckMinimality()
	}
	return nil
}
