package skeen

import (
	"fmt"

	"flexcast/amcast"
)

// snapshot is the Skeen engine's amcast.Snapshot: a deep copy of the
// Lamport clock, the pending-message table and the delivery state.
type snapshot struct {
	g          amcast.GroupID
	clock      uint64
	pend       map[amcast.MsgID]*pend
	delivered  *amcast.IDSet
	deliveries []amcast.Delivery
	seq        uint64
}

// SnapshotGroup implements amcast.Snapshot.
func (s *snapshot) SnapshotGroup() amcast.GroupID { return s.g }

var _ amcast.SnapshotEngine = (*Engine)(nil)

func copyPend(p *pend) *pend {
	c := &pend{
		msg:      p.msg,
		hasMsg:   p.hasMsg,
		localTS:  p.localTS,
		hasTS:    p.hasTS,
		ts:       make(map[amcast.GroupID]uint64, len(p.ts)),
		final:    p.final,
		hasFinal: p.hasFinal,
	}
	for g, ts := range p.ts {
		c.ts[g] = ts
	}
	return c
}

func copyPendTable(m map[amcast.MsgID]*pend) map[amcast.MsgID]*pend {
	c := make(map[amcast.MsgID]*pend, len(m))
	for id, p := range m {
		c[id] = copyPend(p)
	}
	return c
}

// Snapshot implements amcast.SnapshotEngine.
func (e *Engine) Snapshot() amcast.Snapshot {
	s := &snapshot{
		g:          e.g,
		clock:      e.clock,
		pend:       copyPendTable(e.pend),
		delivered:  e.delivered.Clone(),
		deliveries: append([]amcast.Delivery(nil), e.deliveries...),
		seq:        e.seq,
	}
	return s
}

// Restore implements amcast.SnapshotEngine.
func (e *Engine) Restore(snap amcast.Snapshot) error {
	s, ok := snap.(*snapshot)
	if !ok {
		return fmt.Errorf("skeen: restore of foreign snapshot %T", snap)
	}
	if s.g != e.g {
		return fmt.Errorf("skeen: restore of group %d snapshot into group %d", s.g, e.g)
	}
	e.clock = s.clock
	e.pend = copyPendTable(s.pend)
	e.delivered = *s.delivered.Clone()
	e.deliveries = append([]amcast.Delivery(nil), s.deliveries...)
	e.seq = s.seq
	return nil
}
