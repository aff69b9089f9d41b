package core

import (
	"fmt"
	"maps"
	"slices"

	"flexcast/amcast"
	"flexcast/internal/history"
)

// snapshot is the FlexCast engine's amcast.Snapshot: a deep copy of every
// mutable field of Engine except the delivery log, which is append-only
// and therefore shared by prefix. Config (group, overlay, GC switch) is
// not captured — a snapshot is restored into an engine built with the
// same configuration, which Restore verifies via the group id.
type snapshot struct {
	g   amcast.GroupID
	hst *history.History
	// delivered is the engine's deliveredLog up to the capture, capacity
	// clipped: the engine appends past it and nothing writes into it, so
	// another goroutine may read it while the engine runs.
	delivered  []amcast.MsgID
	open       map[amcast.MsgID]bool
	queues     map[amcast.GroupID][]amcast.MsgID
	pend       map[amcast.MsgID]*pending
	pendNotif  []*pendingNotif
	notifDone  map[amcast.MsgID]byGroup[uint64]
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

// copyIDSet never returns nil: the result backs an engine's or a pending
// notification's set, which is written to.
func copyIDSet(m map[amcast.MsgID]bool) map[amcast.MsgID]bool {
	c := make(map[amcast.MsgID]bool, len(m))
	maps.Copy(c, m)
	return c
}

func copyGroupEpochs(m map[amcast.GroupID]uint64) map[amcast.GroupID]uint64 {
	c := make(map[amcast.GroupID]uint64, len(m))
	maps.Copy(c, m)
	return c
}

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
		c = append(c, &pendingNotif{msg: pn.msg, notifier: pn.notifier, epoch: pn.epoch, deps: copyIDSet(pn.deps)})
	}
	return c
}

// capture copies the engine's mutable state. It backs both Snapshot
// (engine → snapshot) and Restore (snapshot → engine), so a snapshot can
// be restored repeatedly without the running engine corrupting it.
func (e *Engine) capture() *snapshot {
	n := len(e.deliveredLog)
	s := &snapshot{
		g:          e.g,
		hst:        e.hst.Clone(),
		delivered:  e.deliveredLog[:n:n],
		open:       copyIDSet(e.open),
		queues:     make(map[amcast.GroupID][]amcast.MsgID, len(e.queues)),
		pend:       make(map[amcast.MsgID]*pending, len(e.pend)),
		pendNotif:  copyPendNotifs(e.pendNotif),
		notifDone:  copyByGroup(e.notifDone),
		trafficSeq: copyGroupEpochs(e.trafficSeq),
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
// the engine. The engine's first append after it reallocates the log
// (the snapshot's slice has no spare capacity), leaving the snapshot's
// prefix untouched.
func (e *Engine) install(s *snapshot) {
	e.hst = s.hst.Clone()
	e.deliveredLog = s.delivered[:len(s.delivered):len(s.delivered)]
	e.delivered = make(map[amcast.MsgID]struct{}, len(s.delivered))
	for _, id := range s.delivered {
		e.delivered[id] = struct{}{}
	}
	e.open = copyIDSet(s.open)
	e.queues = make(map[amcast.GroupID][]amcast.MsgID, len(s.queues))
	for g, q := range s.queues {
		e.queues[g] = append([]amcast.MsgID(nil), q...)
	}
	e.pend = make(map[amcast.MsgID]*pending, len(s.pend))
	for id, p := range s.pend {
		e.pend[id] = copyPending(p)
	}
	e.pendNotif = copyPendNotifs(s.pendNotif)
	e.notifDone = copyByGroup(s.notifDone)
	e.trafficSeq = copyGroupEpochs(s.trafficSeq)
	e.notifSent = copyByGroup(s.notifSent)
	e.cursors = maps.Clone(s.cursors)
	e.deliveries = append([]amcast.Delivery(nil), s.deliveries...)
	e.seq = s.seq
	e.nPruned = s.nPruned
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
	e.install(s)
	return nil
}
