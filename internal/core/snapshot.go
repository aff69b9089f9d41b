package core

import (
	"fmt"
	"maps"
	"slices"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/history"
)

// snapshot is the FlexCast engine's amcast.Snapshot: a deep copy of every
// mutable field of Engine except the two append-only logs (deliveries,
// accepted notifications), which are shared by prefix, and the history,
// which is captured as its encoding. Config (group, overlay, GC switch)
// is not captured — a snapshot is restored into an engine built with the
// same configuration, which Restore verifies via the group id.
type snapshot struct {
	g amcast.GroupID
	// hst is the history's AppendBinary image: the body copies it, install
	// decodes it.
	hst []byte
	// delivered and notifDone are the engine's two logs up to the capture,
	// capacity clipped: the engine appends past them and nothing writes
	// into them, so another goroutine may read them while the engine runs.
	delivered  []amcast.MsgID
	notifDone  []notifPut
	open       map[amcast.MsgID]bool
	queues     map[amcast.GroupID][]amcast.MsgID
	pend       map[amcast.MsgID]*pending
	pendNotif  []*pendingNotif
	trafficSeq map[amcast.GroupID]uint64
	notifSent  map[amcast.MsgID]byGroup[notifState]
	cursors    map[amcast.GroupID]history.Cursor

	deliveries []amcast.Delivery
	seq        uint64
	nPruned    int
}

// SnapshotGroup implements amcast.Snapshot.
func (s *snapshot) SnapshotGroup() amcast.GroupID { return s.g }

var _ amcast.SnapshotEngine = (*Engine)(nil)

// copyByGroup copies a per-message table of byGroup collections; put
// writes an entry in place, so each collection is cloned.
func copyByGroup[V any](m map[amcast.MsgID]byGroup[V]) map[amcast.MsgID]byGroup[V] {
	c := make(map[amcast.MsgID]byGroup[V], len(m))
	for id, es := range m {
		c[id] = slices.Clone(es)
	}
	return c
}

func copyPending(p *pending) *pending {
	c := *p
	c.acks = slices.Clone(p.acks)
	c.notif = slices.Clone(p.notif)
	c.notifAcks = slices.Clone(p.notifAcks)
	return &c
}

func copyPendNotifs(pns []*pendingNotif) []*pendingNotif {
	var c []*pendingNotif
	for _, pn := range pns {
		c = append(c, &pendingNotif{msg: pn.msg, notifier: pn.notifier, epoch: pn.epoch, deps: maps.Clone(pn.deps)})
	}
	return c
}

// capture copies the engine's mutable state; install is its inverse and
// copies again, so a snapshot can be restored repeatedly without the
// running engine corrupting it. The history is encoded into the engine's
// buffer and copied out: one allocation however many nodes there are.
func (e *Engine) capture() *snapshot {
	n, nd := len(e.deliveredLog), len(e.notifDoneLog)
	e.hstImage = e.hst.AppendBinary(e.hstImage[:0])
	s := &snapshot{
		g:          e.g,
		hst:        slices.Clone(e.hstImage),
		delivered:  e.deliveredLog[:n:n],
		notifDone:  e.notifDoneLog[:nd:nd],
		open:       maps.Clone(e.open),
		queues:     make(map[amcast.GroupID][]amcast.MsgID, len(e.queues)),
		pend:       make(map[amcast.MsgID]*pending, len(e.pend)),
		pendNotif:  copyPendNotifs(e.pendNotif),
		trafficSeq: maps.Clone(e.trafficSeq),
		notifSent:  copyByGroup(e.notifSent),
		cursors:    maps.Clone(e.cursors),
		deliveries: append([]amcast.Delivery(nil), e.deliveries...),
		seq:        e.seq,
		nPruned:    e.nPruned,
	}
	for g, q := range e.queues {
		s.queues[g] = append([]amcast.MsgID(nil), q...)
	}
	for id, p := range e.pend {
		s.pend[id] = copyPending(p)
	}
	return s
}

// install is the inverse of capture: it deep-copies snapshot state into
// the engine, which is untouched when the history image does not decode.
// The engine's first append to a log after it reallocates the log (the
// snapshot's slice has no spare capacity), leaving the snapshot's prefix
// untouched.
func (e *Engine) install(s *snapshot) error {
	r := codec.NewReader(s.hst)
	hst := history.Decode(r)
	if err := r.Close(); err != nil {
		return fmt.Errorf("core: restore: history image: %w", err)
	}
	e.hst = hst
	e.deliveredLog = s.delivered[:len(s.delivered):len(s.delivered)]
	e.delivered = amcast.IDSet{}
	for _, id := range s.delivered {
		e.delivered.Add(id)
	}
	e.open = maps.Clone(s.open)
	e.queues = make(map[amcast.GroupID][]amcast.MsgID, len(s.queues))
	for g, q := range s.queues {
		e.queues[g] = append([]amcast.MsgID(nil), q...)
	}
	e.pend = make(map[amcast.MsgID]*pending, len(s.pend))
	for id, p := range s.pend {
		e.pend[id] = copyPending(p)
	}
	e.pendNotif = copyPendNotifs(s.pendNotif)
	e.notifDoneLog = s.notifDone[:len(s.notifDone):len(s.notifDone)]
	e.notifDone = make(map[amcast.MsgID]byGroup[uint64], len(s.notifDone))
	for _, p := range s.notifDone {
		e.notifDone[p.id] = e.notifDone[p.id].put(p.notifier, p.epoch)
	}
	e.trafficSeq = maps.Clone(s.trafficSeq)
	e.notifSent = copyByGroup(s.notifSent)
	e.cursors = maps.Clone(s.cursors)
	e.deliveries = append([]amcast.Delivery(nil), s.deliveries...)
	e.seq = s.seq
	e.nPruned = s.nPruned
	return nil
}

// Snapshot implements amcast.SnapshotEngine.
func (e *Engine) Snapshot() amcast.Snapshot { return e.capture() }

// Restore implements amcast.SnapshotEngine.
func (e *Engine) Restore(snap amcast.Snapshot) error {
	s, ok := snap.(*snapshot)
	if !ok {
		return fmt.Errorf("core: restore of foreign snapshot %T", snap)
	}
	if s.g != e.g {
		return fmt.Errorf("core: restore of group %d snapshot into group %d", s.g, e.g)
	}
	return e.install(s)
}
