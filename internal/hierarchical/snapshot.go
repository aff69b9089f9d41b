package hierarchical

import (
	"encoding/binary"
	"fmt"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// The hierarchical engine's record (amcast.BinarySnapshot) is its whole
// state, written against any mark, with an empty instalment: the seen set
// and the delivery state (the engine has no other mutable state —
// ordering comes from FIFO links). The seen set is written as it was when
// it was a map[MsgID]bool: ascending ids, each with true.

// snapshot is the hierarchical engine's amcast.BinarySnapshot: its record.
type snapshot struct{ amcast.WholeSnapshot }

var (
	_ amcast.DeltaEngine    = (*Engine)(nil)
	_ amcast.BinarySnapshot = (*snapshot)(nil)
)

// Mark implements amcast.DeltaEngine. The record is the same against
// every mark.
func (e *Engine) Mark() amcast.Mark { return struct{}{} }

// Snapshot implements amcast.SnapshotEngine.
func (e *Engine) Snapshot() amcast.Snapshot {
	return &snapshot{amcast.WholeSnapshot{Group: e.g, Record: e.appendBody(make([]byte, 0, 128))}}
}

// Restore implements amcast.SnapshotEngine.
func (e *Engine) Restore(snap amcast.Snapshot) error {
	s, ok := snap.(*snapshot)
	if !ok {
		return fmt.Errorf("hierarchical: restore of foreign snapshot %T", snap)
	}
	return e.ApplyDelta(s.Record)
}

// UnmarshalSnapshot decodes a snapshot record.
func UnmarshalSnapshot(data []byte) (amcast.Snapshot, error) {
	e := &Engine{g: amcast.GroupID(codec.NewReader(data).Uvarint())}
	if err := e.ApplyDelta(data); err != nil {
		return nil, err
	}
	return e.Snapshot(), nil
}

// AppendDelta implements amcast.DeltaEngine.
func (e *Engine) AppendDelta(body, tail []byte, _ amcast.Mark) ([]byte, []byte, error) {
	return e.appendBody(body), tail, nil
}

func (e *Engine) appendBody(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(uint32(e.g)))
	buf = binary.AppendUvarint(buf, uint64(e.seen.Len()))
	e.seen.Ascend(func(id amcast.MsgID) bool {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = codec.AppendBool(buf, true)
		return true
	})
	buf = binary.AppendUvarint(buf, uint64(len(e.deliveries)))
	for _, d := range e.deliveries {
		buf = codec.AppendDelivery(buf, d)
	}
	buf = binary.AppendUvarint(buf, e.seq)
	return binary.AppendUvarint(buf, e.relayed)
}

// ApplyDelta implements amcast.DeltaEngine: the record replaces the whole
// state, once it has been read.
func (e *Engine) ApplyDelta(record []byte) error {
	r := codec.NewReader(record)
	n := Engine{g: amcast.GroupID(r.Uvarint()), tree: e.tree}
	if r.Err() == nil && n.g != e.g {
		return fmt.Errorf("hierarchical: record of group %d applied to group %d", n.g, e.g)
	}
	nSeen := r.Count()
	for i := 0; i < nSeen && r.Err() == nil; i++ {
		// A false entry is absent, as the map lookup treated it.
		if id := amcast.MsgID(r.Uvarint()); r.Bool() {
			n.seen.Add(id)
		}
	}
	nD := r.Count()
	n.deliveries = make([]amcast.Delivery, 0, nD)
	for i := 0; i < nD && r.Err() == nil; i++ {
		n.deliveries = append(n.deliveries, r.Delivery())
	}
	n.seq = r.Uvarint()
	n.relayed = r.Uvarint()
	if err := r.Close(); err != nil {
		return fmt.Errorf("hierarchical: snapshot decode: %w", err)
	}
	*e = n
	return nil
}
