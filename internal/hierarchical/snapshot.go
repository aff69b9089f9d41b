package hierarchical

import (
	"fmt"

	"flexcast/amcast"
)

// snapshot is the hierarchical engine's amcast.Snapshot: the seen set and
// delivery state (the engine has no other mutable state — ordering comes
// from FIFO links).
type snapshot struct {
	g          amcast.GroupID
	seen       *amcast.IDSet
	deliveries []amcast.Delivery
	seq        uint64
	relayed    uint64
}

// SnapshotGroup implements amcast.Snapshot.
func (s *snapshot) SnapshotGroup() amcast.GroupID { return s.g }

var _ amcast.SnapshotEngine = (*Engine)(nil)

// Snapshot implements amcast.SnapshotEngine.
func (e *Engine) Snapshot() amcast.Snapshot {
	s := &snapshot{
		g:          e.g,
		seen:       e.seen.Clone(),
		deliveries: append([]amcast.Delivery(nil), e.deliveries...),
		seq:        e.seq,
		relayed:    e.relayed,
	}
	return s
}

// Restore implements amcast.SnapshotEngine.
func (e *Engine) Restore(snap amcast.Snapshot) error {
	s, ok := snap.(*snapshot)
	if !ok {
		return fmt.Errorf("hierarchical: restore of foreign snapshot %T", snap)
	}
	if s.g != e.g {
		return fmt.Errorf("hierarchical: restore of group %d snapshot into group %d", s.g, e.g)
	}
	e.seen = *s.seen.Clone()
	e.deliveries = append([]amcast.Delivery(nil), s.deliveries...)
	e.seq = s.seq
	e.relayed = s.relayed
	return nil
}
