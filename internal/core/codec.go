package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/history"
)

// The FlexCast engine's record (amcast.BinarySnapshot), written against a
// mark m (the zero mark for a snapshot):
//
//	record     := body ‖ instalment…
//	body       := g ‖ history ‖ notifFrom ‖ sections ‖ deliveredFrom ‖ count
//	instalment := u64le id…
//
// The history is history.AppendDelta against m's history mark — 1 ‖ its
// AppendBinary image against the zero mark. The sections are every other
// part of the state in full, map iteration sorted so that the same state
// writes the same bytes, but for the accepted-notification log, which is
// written from entry notifFrom on (m's length of it); a held envelope is
// its wire encoding, length-prefixed. The delivery log is the record's
// tail: the count entries appended since deliveredFrom (m's length of it),
// in delivery order and fixed-width, which a journal holds as the
// concatenation of its instalments — nothing in it is ever dead.

// idWidth is the encoded size of one delivery-log entry (u64le).
const idWidth = 8

func appendIDSet(buf []byte, m map[amcast.MsgID]bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for _, id := range codec.SortedKeys(m) {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = codec.AppendBool(buf, m[id])
	}
	return buf
}

func readIDSet(r *codec.Reader) map[amcast.MsgID]bool {
	n := r.Count()
	m := make(map[amcast.MsgID]bool, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := amcast.MsgID(r.Uvarint())
		m[id] = r.Bool()
	}
	return m
}

func appendGroupEpochs(buf []byte, m map[amcast.GroupID]uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for _, g := range codec.SortedKeys(m) {
		buf = binary.AppendUvarint(buf, uint64(uint32(g)))
		buf = binary.AppendUvarint(buf, m[g])
	}
	return buf
}

func readGroupEpochs(r *codec.Reader) map[amcast.GroupID]uint64 {
	n := r.Count()
	m := make(map[amcast.GroupID]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		g := amcast.GroupID(r.Uvarint())
		m[g] = r.Uvarint()
	}
	return m
}

// appendPending writes the three collections in sorted order: they are
// unordered in memory, and equal states must marshal to equal bytes.
func appendPending(buf []byte, p *pending) []byte {
	buf = codec.AppendMessage(buf, p.msg)
	buf = codec.AppendBool(buf, p.hasMsg)
	buf = codec.AppendBool(buf, p.queued)
	acks := slices.Clone(p.acks)
	slices.Sort(acks)
	buf = codec.AppendGroups(buf, acks)
	pairs := amcast.NormalizePairs(slices.Clone(p.notif))
	buf = binary.AppendUvarint(buf, uint64(len(pairs)))
	for _, pr := range pairs {
		buf = binary.AppendUvarint(buf, uint64(uint32(pr.Notifier)))
		buf = binary.AppendUvarint(buf, uint64(uint32(pr.Notified)))
		buf = binary.AppendUvarint(buf, pr.Epoch)
	}
	flushed := slices.Clone(p.notifAcks)
	slices.SortFunc(flushed, func(a, b notifAck) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.notifier, b.notifier))
	})
	buf = binary.AppendUvarint(buf, uint64(len(flushed)))
	for _, a := range flushed {
		buf = binary.AppendUvarint(buf, uint64(uint32(a.from)))
		buf = binary.AppendUvarint(buf, uint64(uint32(a.notifier)))
		buf = binary.AppendUvarint(buf, a.epoch)
	}
	return buf
}

func readPending(r *codec.Reader) *pending {
	p := &pending{
		msg:    r.Message(),
		hasMsg: r.Bool(),
		queued: r.Bool(),
		acks:   r.Groups(),
	}
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		p.addNotif(amcast.NotifPair{
			Notifier: amcast.GroupID(r.Uvarint()),
			Notified: amcast.GroupID(r.Uvarint()),
			Epoch:    r.Uvarint(),
		})
	}
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		p.addNotifAck(amcast.GroupID(r.Uvarint()), amcast.GroupID(r.Uvarint()), r.Uvarint())
	}
	return p
}

// appendBody appends the body of the engine's record against m.
func (e *Engine) appendBody(buf []byte, m mark) []byte {
	buf = binary.AppendUvarint(buf, uint64(uint32(e.g)))
	buf = e.hst.AppendDelta(buf, m.hst)
	buf = binary.AppendUvarint(buf, uint64(m.notifDone))
	buf = e.state.appendSections(buf, m.notifDone)
	buf = binary.AppendUvarint(buf, uint64(m.delivered))
	return binary.AppendUvarint(buf, uint64(len(e.deliveredLog)-m.delivered))
}

// appendIDs appends delivery log entries, fixed-width.
func appendIDs(buf []byte, ids []amcast.MsgID) []byte {
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	return buf
}

// appendSections appends the sections between the history and the
// delivery log, with the accepted-notification log from entry from on.
func (s *state) appendSections(buf []byte, from int) []byte {
	buf = appendIDSet(buf, s.open)
	buf = binary.AppendUvarint(buf, uint64(len(s.queues)))
	for _, g := range codec.SortedKeys(s.queues) {
		buf = binary.AppendUvarint(buf, uint64(uint32(g)))
		q := s.queues[g]
		buf = binary.AppendUvarint(buf, uint64(len(q)))
		for _, id := range q {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.pend)))
	for _, id := range codec.SortedKeys(s.pend) {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = appendPending(buf, s.pend[id])
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.pendNotif)))
	for _, pn := range s.pendNotif {
		buf = codec.AppendMessage(buf, pn.msg)
		buf = binary.AppendUvarint(buf, uint64(uint32(pn.notifier)))
		buf = binary.AppendUvarint(buf, pn.epoch)
		buf = binary.AppendUvarint(buf, uint64(len(pn.deps)))
		for _, id := range codec.SortedKeys(pn.deps) {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.notifDoneLog)-from))
	for _, p := range s.notifDoneLog[from:] {
		buf = binary.AppendUvarint(buf, uint64(p.id))
		buf = binary.AppendUvarint(buf, uint64(uint32(p.notifier)))
		buf = binary.AppendUvarint(buf, p.epoch)
	}
	buf = appendGroupEpochs(buf, s.trafficSeq)
	buf = binary.AppendUvarint(buf, uint64(len(s.notifSent)))
	for _, id := range codec.SortedKeys(s.notifSent) {
		buf = binary.AppendUvarint(buf, uint64(id))
		sent := s.notifSent[id]
		buf = binary.AppendUvarint(buf, uint64(len(sent)))
		for _, e := range sent {
			buf = binary.AppendUvarint(buf, uint64(uint32(e.g)))
			buf = binary.AppendUvarint(buf, e.v.epoch)
			buf = binary.AppendUvarint(buf, e.v.seq)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.cursors)))
	for _, g := range codec.SortedKeys(s.cursors) {
		buf = binary.AppendUvarint(buf, uint64(uint32(g)))
		buf = binary.AppendUvarint(buf, uint64(s.cursors[g]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.holds)))
	for _, h := range s.holds {
		buf = binary.AppendUvarint(buf, uint64(uint32(h.from)))
		buf = binary.AppendUvarint(buf, uint64(h.flush))
		buf = binary.AppendUvarint(buf, uint64(len(h.envs)))
		for _, env := range h.envs {
			buf = binary.AppendUvarint(buf, uint64(codec.Size(env)))
			buf = codec.Append(buf, env)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.deliveries)))
	for _, d := range s.deliveries {
		buf = codec.AppendDelivery(buf, d)
	}
	buf = binary.AppendUvarint(buf, s.seq)
	return binary.AppendUvarint(buf, uint64(s.nPruned))
}

// read reads a record of group g's engine written against base and
// returns the state it makes of base. Everything is decoded and checked
// before base is touched: the history against base's history, each log's
// starting length against the log, an accepted notification against the
// epochs it supersedes, a delivery against the deliveries before it. What
// the record does not carry — the history's unchanged slots, the logs'
// earlier entries — is base's, brought forward in place.
func (base state) read(g amcast.GroupID, rec []byte) (state, error) {
	r := codec.NewReader(rec)
	if got := amcast.GroupID(r.Uvarint()); r.Err() == nil && got != g {
		return state{}, fmt.Errorf("record of group %d read into group %d", got, g)
	}
	applyHistory := base.hst.ReadDelta(r)
	if from := r.Uvarint(); r.Err() == nil && from != uint64(len(base.notifDoneLog)) {
		r.Fail(fmt.Errorf("record written against %d accepted notifications, the engine has %d", from, len(base.notifDoneLog)))
	}
	var st state
	puts := st.readSections(r, base.notifDone)
	if from := r.Uvarint(); r.Err() == nil && from != uint64(len(base.deliveredLog)) {
		r.Fail(fmt.Errorf("record written against %d deliveries, the engine has %d", from, len(base.deliveredLog)))
	}
	raw := r.Entries(idWidth)
	var fresh amcast.IDSet
	for i := 0; i < len(raw) && r.Err() == nil; i += idWidth {
		id := amcast.MsgID(binary.LittleEndian.Uint64(raw[i:]))
		if base.delivered.Len() > 0 && base.delivered.Has(id) || !fresh.Add(id) {
			r.Fail(fmt.Errorf("record delivers %s twice", id))
		}
	}
	if err := r.Close(); err != nil {
		return state{}, err
	}
	st.hst = applyHistory()
	st.deliveredLog = slices.Grow(base.deliveredLog, len(raw)/idWidth)
	for i := 0; i < len(raw); i += idWidth {
		st.deliveredLog = append(st.deliveredLog, amcast.MsgID(binary.LittleEndian.Uint64(raw[i:])))
	}
	// The check indexed the record's deliveries: for a whole record, all
	// there are.
	st.delivered = fresh
	if base.delivered.Len() > 0 {
		st.delivered = base.delivered
		for _, id := range st.deliveredLog[len(base.deliveredLog):] {
			st.delivered.Add(id)
		}
	}
	st.notifDoneLog, st.notifDone = base.notifDoneLog, base.notifDone
	for _, p := range puts {
		st.notifDoneLog = append(st.notifDoneLog, p)
		st.notifDone[p.id] = st.notifDone[p.id].put(p.notifier, p.epoch)
	}
	return st, nil
}

// readSections reads an appendSections record into s and returns the
// accepted-notification log entries it holds, each of which must raise
// the epoch it supersedes, in the entries read before it or in done, the
// index of the log they continue.
func (s *state) readSections(r *codec.Reader, done map[amcast.MsgID]byGroup[uint64]) (puts []notifPut) {
	s.open = readIDSet(r)
	nQ := r.Count()
	s.queues = make(map[amcast.GroupID][]amcast.MsgID, nQ)
	for i := 0; i < nQ && r.Err() == nil; i++ {
		g := amcast.GroupID(r.Uvarint())
		nIDs := r.Count()
		q := make([]amcast.MsgID, 0, nIDs)
		for j := 0; j < nIDs && r.Err() == nil; j++ {
			q = append(q, amcast.MsgID(r.Uvarint()))
		}
		s.queues[g] = q
	}
	nPend := r.Count()
	s.pend = make(map[amcast.MsgID]*pending, nPend)
	for i := 0; i < nPend && r.Err() == nil; i++ {
		id := amcast.MsgID(r.Uvarint())
		s.pend[id] = readPending(r)
	}
	nPN := r.Count()
	for i := 0; i < nPN && r.Err() == nil; i++ {
		pn := &pendingNotif{
			msg:      r.Message(),
			notifier: amcast.GroupID(r.Uvarint()),
			epoch:    r.Uvarint(),
			deps:     make(map[amcast.MsgID]bool),
		}
		nDeps := r.Count()
		for j := 0; j < nDeps && r.Err() == nil; j++ {
			pn.deps[amcast.MsgID(r.Uvarint())] = true
		}
		s.pendNotif = append(s.pendNotif, pn)
	}
	// The index is built only to check the log: a put must raise the epoch
	// it supersedes, which is also what rules out epoch 0.
	read := make(map[amcast.MsgID]byGroup[uint64])
	for n := r.Count(); len(puts) < n && r.Err() == nil; {
		p := notifPut{id: amcast.MsgID(r.Uvarint()), notifier: amcast.GroupID(r.Uvarint()), epoch: r.Uvarint()}
		if r.Err() == nil && p.epoch <= max(read[p.id].get(p.notifier), done[p.id].get(p.notifier)) {
			r.Fail(fmt.Errorf("accepted-notification log entry %d: epoch %d of %s from group %d does not exceed the one it supersedes", len(puts), p.epoch, p.id, p.notifier))
		}
		read[p.id] = read[p.id].put(p.notifier, p.epoch)
		puts = append(puts, p)
	}
	s.trafficSeq = readGroupEpochs(r)
	nNS := r.Count()
	s.notifSent = make(map[amcast.MsgID]byGroup[notifState], nNS)
	for i := 0; i < nNS && r.Err() == nil; i++ {
		id := amcast.MsgID(r.Uvarint())
		var sent byGroup[notifState]
		for n := r.Count(); n > 0 && r.Err() == nil; n-- {
			sent = sent.put(amcast.GroupID(r.Uvarint()), notifState{epoch: r.Uvarint(), seq: r.Uvarint()})
		}
		s.notifSent[id] = sent
	}
	nCur := r.Count()
	s.cursors = make(map[amcast.GroupID]history.Cursor, nCur)
	for i := 0; i < nCur && r.Err() == nil; i++ {
		g := amcast.GroupID(r.Uvarint())
		s.cursors[g] = history.Cursor(r.Uvarint())
	}
	for n := r.Count(); len(s.holds) < n && r.Err() == nil; {
		h := &hold{from: amcast.GroupID(r.Uvarint()), flush: amcast.MsgID(r.Uvarint()), since: time.Now()}
		if k := len(s.holds); k > 0 && h.from <= s.holds[k-1].from {
			r.Fail(fmt.Errorf("hold on group %d out of order", h.from))
		}
		for k := r.Count(); len(h.envs) < k && r.Err() == nil; {
			// The envelope is decoded from a copy: its payload aliases the
			// bytes it is decoded from, and the caller keeps data.
			env, err := codec.Unmarshal(slices.Clone(r.BytesN(r.Count())))
			if err != nil {
				r.Fail(fmt.Errorf("held envelope: %w", err))
			}
			h.envs = append(h.envs, env)
		}
		s.holds = append(s.holds, h)
	}
	nDel := r.Count()
	s.deliveries = make([]amcast.Delivery, 0, nDel)
	for i := 0; i < nDel && r.Err() == nil; i++ {
		s.deliveries = append(s.deliveries, r.Delivery())
	}
	s.seq = r.Uvarint()
	s.nPruned = int(r.Uvarint())
	return puts
}
