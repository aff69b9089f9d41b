package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/history"
)

// Binary snapshot codec for the FlexCast engine. Map iteration is
// always sorted, so the same snapshot marshals to the same bytes; the
// history is the image capture took of it (history.AppendBinary, slot by
// slot) and the accepted-notification log is written as it stands. The
// delivery log comes last, in delivery order and fixed-width: it is the
// encoding's tail (amcast.TailSnapshot) — an instalment is the entries
// appended since the previous snapshot, a journal their concatenation,
// nothing in it is ever dead — and the body ends with its entry count.

var _ amcast.TailSnapshot = (*snapshot)(nil)

// idWidth is the encoded size of one delivery-log entry (u64le).
const idWidth = 8

func sortedIDs[V any](m map[amcast.MsgID]V) []amcast.MsgID {
	ids := make([]amcast.MsgID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sortedGroups[V any](m map[amcast.GroupID]V) []amcast.GroupID {
	gs := make([]amcast.GroupID, 0, len(m))
	for g := range m {
		gs = append(gs, g)
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	return gs
}

func appendIDSet(buf []byte, m map[amcast.MsgID]bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for _, id := range sortedIDs(m) {
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
	for _, g := range sortedGroups(m) {
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

// MarshalBinary implements amcast.BinarySnapshot.
func (s *snapshot) MarshalBinary() ([]byte, error) {
	body, tail, err := s.AppendSplit(nil, nil, nil)
	return amcast.JoinSnapshot(body, tail), err
}

// AppendSplit implements amcast.TailSnapshot.
func (s *snapshot) AppendSplit(body, tail []byte, prev amcast.Snapshot) ([]byte, []byte, error) {
	from := 0
	if prev != nil {
		p, ok := prev.(*snapshot)
		if !ok {
			return nil, nil, fmt.Errorf("core: snapshot tail split against foreign snapshot %T", prev)
		}
		from = len(p.delivered)
		if from > len(s.delivered) || from > 0 && p.delivered[from-1] != s.delivered[from-1] {
			return nil, nil, fmt.Errorf("core: snapshot tail split against a %d-entry delivery log that the snapshot's %d-entry log does not extend", from, len(s.delivered))
		}
	}
	for _, id := range s.delivered[from:] {
		tail = binary.LittleEndian.AppendUint64(tail, uint64(id))
	}
	return s.appendBody(body), tail, nil
}

func (s *snapshot) appendBody(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(uint32(s.g)))
	buf = append(buf, s.hst...)
	buf = appendIDSet(buf, s.open)
	buf = binary.AppendUvarint(buf, uint64(len(s.queues)))
	for _, g := range sortedGroups(s.queues) {
		buf = binary.AppendUvarint(buf, uint64(uint32(g)))
		q := s.queues[g]
		buf = binary.AppendUvarint(buf, uint64(len(q)))
		for _, id := range q {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.pend)))
	for _, id := range sortedIDs(s.pend) {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = appendPending(buf, s.pend[id])
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.pendNotif)))
	for _, pn := range s.pendNotif {
		buf = codec.AppendMessage(buf, pn.msg)
		buf = binary.AppendUvarint(buf, uint64(uint32(pn.notifier)))
		buf = binary.AppendUvarint(buf, pn.epoch)
		buf = binary.AppendUvarint(buf, uint64(len(pn.deps)))
		for _, id := range sortedIDs(pn.deps) {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.notifDone)))
	for _, p := range s.notifDone {
		buf = binary.AppendUvarint(buf, uint64(p.id))
		buf = binary.AppendUvarint(buf, uint64(uint32(p.notifier)))
		buf = binary.AppendUvarint(buf, p.epoch)
	}
	buf = appendGroupEpochs(buf, s.trafficSeq)
	buf = binary.AppendUvarint(buf, uint64(len(s.notifSent)))
	for _, id := range sortedIDs(s.notifSent) {
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
	for _, g := range sortedGroups(s.cursors) {
		buf = binary.AppendUvarint(buf, uint64(uint32(g)))
		buf = binary.AppendUvarint(buf, uint64(s.cursors[g]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.deliveries)))
	for _, d := range s.deliveries {
		buf = codec.AppendDelivery(buf, d)
	}
	buf = binary.AppendUvarint(buf, s.seq)
	buf = binary.AppendUvarint(buf, uint64(s.nPruned))
	return binary.AppendUvarint(buf, uint64(len(s.delivered)))
}

// UnmarshalSnapshot decodes a snapshot previously produced by
// MarshalBinary. The result restores into an Engine of the same group.
func UnmarshalSnapshot(data []byte) (amcast.Snapshot, error) {
	r := codec.NewReader(data)
	s := &snapshot{g: amcast.GroupID(r.Uvarint())}
	// The history section is validated here and kept as bytes for Restore.
	at := len(data) - r.Len()
	history.Decode(r)
	s.hst = slices.Clone(data[at : len(data)-r.Len()])
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
	done := make(map[amcast.MsgID]byGroup[uint64])
	for n := r.Count(); len(s.notifDone) < n && r.Err() == nil; {
		p := notifPut{id: amcast.MsgID(r.Uvarint()), notifier: amcast.GroupID(r.Uvarint()), epoch: r.Uvarint()}
		if r.Err() == nil && p.epoch <= done[p.id].get(p.notifier) {
			r.Fail(fmt.Errorf("core: accepted-notification log entry %d: epoch %d of %s from group %d does not exceed the one it supersedes", len(s.notifDone), p.epoch, p.id, p.notifier))
		}
		done[p.id] = done[p.id].put(p.notifier, p.epoch)
		s.notifDone = append(s.notifDone, p)
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
	nDel := r.Count()
	s.deliveries = make([]amcast.Delivery, 0, nDel)
	for i := 0; i < nDel && r.Err() == nil; i++ {
		s.deliveries = append(s.deliveries, r.Delivery())
	}
	s.seq = r.Uvarint()
	s.nPruned = int(r.Uvarint())
	// The log is everything after its count, so the count is checked
	// against the bytes that are there before anything is allocated.
	if n := r.Uvarint(); n <= uint64(len(data))/idWidth {
		raw := r.BytesN(int(n) * idWidth)
		s.delivered = make([]amcast.MsgID, 0, len(raw)/idWidth)
		for ; len(raw) > 0; raw = raw[idWidth:] {
			s.delivered = append(s.delivered, amcast.MsgID(binary.LittleEndian.Uint64(raw)))
		}
	} else {
		r.Fail(fmt.Errorf("core: delivery log of %d entries in a %d-byte snapshot", n, len(data)))
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("core: snapshot decode: %w", err)
	}
	return s, nil
}
