package core

import (
	"fmt"
	"slices"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/history"
)

// snapshot is the FlexCast engine's amcast.BinarySnapshot: the body of its
// record against the zero mark, and the delivery log up to it, capacity
// clipped — the engine appends past it and nothing writes into it, so
// another goroutine may read it while the engine runs. Config (overlay,
// GC switch) is not captured: a snapshot is restored into an engine built
// with the same configuration, which Restore verifies via the group id.
type snapshot struct {
	g         amcast.GroupID
	body      []byte
	delivered []amcast.MsgID
}

// SnapshotGroup implements amcast.Snapshot.
func (s *snapshot) SnapshotGroup() amcast.GroupID { return s.g }

var (
	_ amcast.DeltaEngine    = (*Engine)(nil)
	_ amcast.BinarySnapshot = (*snapshot)(nil)
)

// Snapshot implements amcast.SnapshotEngine. The body is encoded into the
// engine's buffer and copied out: one allocation however large the
// history.
func (e *Engine) Snapshot() amcast.Snapshot {
	e.buf = e.appendBody(e.buf[:0], mark{})
	return &snapshot{g: e.g, body: slices.Clone(e.buf), delivered: slices.Clip(e.deliveredLog)}
}

// Restore implements amcast.SnapshotEngine: the snapshot's record is read
// against the empty state, and replaces the engine's once it has been
// checked.
func (e *Engine) Restore(snap amcast.Snapshot) error {
	s, ok := snap.(*snapshot)
	if !ok {
		return fmt.Errorf("core: restore of foreign snapshot %T", snap)
	}
	data, _ := s.MarshalBinary()
	st, err := newState().read(e.g, data)
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	e.state = st
	return nil
}

// UnmarshalSnapshot decodes a snapshot record (MarshalBinary, or a body
// joined with its journal). The result restores into an Engine of the
// same group.
func UnmarshalSnapshot(data []byte) (amcast.Snapshot, error) {
	g := amcast.GroupID(codec.NewReader(data).Uvarint())
	st, err := newState().read(g, data)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot decode: %w", err)
	}
	return (&Engine{g: g, state: st}).Snapshot(), nil
}

// MarshalBinary implements amcast.BinarySnapshot.
func (s *snapshot) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, len(s.body)+idWidth*len(s.delivered))
	return appendIDs(append(buf, s.body...), s.delivered), nil
}

// AppendSplit implements amcast.BinarySnapshot: the instalment is the
// delivery log entries appended since prev.
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
	return append(body, s.body...), appendIDs(slices.Grow(tail, idWidth*(len(s.delivered)-from)), s.delivered[from:]), nil
}

// mark is the engine's amcast.Mark: the history's, and the lengths of the
// two append-only logs. The zero mark is the empty state's.
type mark struct {
	hst                  history.Mark
	delivered, notifDone int
}

// Mark implements amcast.DeltaEngine.
func (e *Engine) Mark() amcast.Mark {
	return mark{hst: e.hst.Mark(), delivered: len(e.deliveredLog), notifDone: len(e.notifDoneLog)}
}

// AppendDelta implements amcast.DeltaEngine. The state is written from
// the engine's own fields, not copied first: the caller encodes on the
// engine goroutine.
func (e *Engine) AppendDelta(body, tail []byte, since amcast.Mark) ([]byte, []byte, error) {
	m, ok := since.(mark)
	if !ok && since != nil || m.delivered > len(e.deliveredLog) || m.notifDone > len(e.notifDoneLog) {
		return nil, nil, fmt.Errorf("core: delta against a foreign mark %v", since)
	}
	return e.appendBody(body, m), appendIDs(tail, e.deliveredLog[m.delivered:]), nil
}

// ApplyDelta implements amcast.DeltaEngine.
func (e *Engine) ApplyDelta(record []byte) error {
	st, err := e.state.read(e.g, record)
	if err != nil {
		return fmt.Errorf("core: delta: %w", err)
	}
	e.state = st
	return nil
}
