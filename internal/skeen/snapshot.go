package skeen

import (
	"encoding/binary"
	"fmt"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// The Skeen engine's record (amcast.BinarySnapshot) is its whole state,
// written against any mark, with an empty instalment: the Lamport clock,
// the pending-message table and the delivery state, map iteration sorted
// so that the same state writes the same bytes. The delivered set is
// written as it was when it was a map[MsgID]bool: ascending ids, each
// with true.

// snapshot is the Skeen engine's amcast.BinarySnapshot: its record.
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
	return &snapshot{amcast.WholeSnapshot{Group: e.g, Record: e.appendBody(make([]byte, 0, 256))}}
}

// Restore implements amcast.SnapshotEngine.
func (e *Engine) Restore(snap amcast.Snapshot) error {
	s, ok := snap.(*snapshot)
	if !ok {
		return fmt.Errorf("skeen: restore of foreign snapshot %T", snap)
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
	buf = binary.AppendUvarint(buf, e.clock)
	buf = binary.AppendUvarint(buf, uint64(len(e.pend)))
	for _, id := range codec.SortedKeys(e.pend) {
		p := e.pend[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = codec.AppendMessage(buf, p.msg)
		buf = codec.AppendBool(buf, p.hasMsg)
		buf = binary.AppendUvarint(buf, p.localTS)
		buf = codec.AppendBool(buf, p.hasTS)
		buf = binary.AppendUvarint(buf, uint64(len(p.ts)))
		for _, g := range codec.SortedKeys(p.ts) {
			buf = binary.AppendUvarint(buf, uint64(uint32(g)))
			buf = binary.AppendUvarint(buf, p.ts[g])
		}
		buf = binary.AppendUvarint(buf, p.final)
		buf = codec.AppendBool(buf, p.hasFinal)
	}
	buf = binary.AppendUvarint(buf, uint64(e.delivered.Len()))
	e.delivered.Ascend(func(id amcast.MsgID) bool {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = codec.AppendBool(buf, true)
		return true
	})
	buf = binary.AppendUvarint(buf, uint64(len(e.deliveries)))
	for _, d := range e.deliveries {
		buf = codec.AppendDelivery(buf, d)
	}
	return binary.AppendUvarint(buf, e.seq)
}

// ApplyDelta implements amcast.DeltaEngine: the record replaces the whole
// state, once it has been read.
func (e *Engine) ApplyDelta(record []byte) error {
	r := codec.NewReader(record)
	n := Engine{g: amcast.GroupID(r.Uvarint()), clock: r.Uvarint()}
	if r.Err() == nil && n.g != e.g {
		return fmt.Errorf("skeen: record of group %d applied to group %d", n.g, e.g)
	}
	nPend := r.Count()
	n.pend = make(map[amcast.MsgID]*pend, nPend)
	for i := 0; i < nPend && r.Err() == nil; i++ {
		id := amcast.MsgID(r.Uvarint())
		p := &pend{
			msg:     r.Message(),
			hasMsg:  r.Bool(),
			localTS: r.Uvarint(),
			hasTS:   r.Bool(),
			ts:      make(map[amcast.GroupID]uint64),
		}
		nTS := r.Count()
		for j := 0; j < nTS && r.Err() == nil; j++ {
			g := amcast.GroupID(r.Uvarint())
			p.ts[g] = r.Uvarint()
		}
		p.final = r.Uvarint()
		p.hasFinal = r.Bool()
		n.pend[id] = p
	}
	nDel := r.Count()
	for i := 0; i < nDel && r.Err() == nil; i++ {
		// A false entry is absent, as the map lookup treated it.
		if id := amcast.MsgID(r.Uvarint()); r.Bool() {
			n.delivered.Add(id)
		}
	}
	nD := r.Count()
	n.deliveries = make([]amcast.Delivery, 0, nD)
	for i := 0; i < nD && r.Err() == nil; i++ {
		n.deliveries = append(n.deliveries, r.Delivery())
	}
	n.seq = r.Uvarint()
	if err := r.Close(); err != nil {
		return fmt.Errorf("skeen: snapshot decode: %w", err)
	}
	*e = n
	return nil
}
