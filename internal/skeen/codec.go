package skeen

import (
	"encoding/binary"
	"fmt"
	"sort"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// Binary snapshot codec for the Skeen engine; sorted map iteration
// keeps the encoding canonical. The delivered set is encoded as it was
// when it was a map[MsgID]bool: ascending ids, each with true.

var _ amcast.BinarySnapshot = (*snapshot)(nil)

// MarshalBinary implements amcast.BinarySnapshot.
func (s *snapshot) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 256)
	buf = binary.AppendUvarint(buf, uint64(uint32(s.g)))
	buf = binary.AppendUvarint(buf, s.clock)
	ids := make([]amcast.MsgID, 0, len(s.pend))
	for id := range s.pend {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		p := s.pend[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = codec.AppendMessage(buf, p.msg)
		buf = codec.AppendBool(buf, p.hasMsg)
		buf = binary.AppendUvarint(buf, p.localTS)
		buf = codec.AppendBool(buf, p.hasTS)
		gs := make([]amcast.GroupID, 0, len(p.ts))
		for g := range p.ts {
			gs = append(gs, g)
		}
		sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
		buf = binary.AppendUvarint(buf, uint64(len(gs)))
		for _, g := range gs {
			buf = binary.AppendUvarint(buf, uint64(uint32(g)))
			buf = binary.AppendUvarint(buf, p.ts[g])
		}
		buf = binary.AppendUvarint(buf, p.final)
		buf = codec.AppendBool(buf, p.hasFinal)
	}
	buf = binary.AppendUvarint(buf, uint64(s.delivered.Len()))
	s.delivered.Ascend(func(id amcast.MsgID) bool {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = codec.AppendBool(buf, true)
		return true
	})
	buf = binary.AppendUvarint(buf, uint64(len(s.deliveries)))
	for _, d := range s.deliveries {
		buf = codec.AppendDelivery(buf, d)
	}
	buf = binary.AppendUvarint(buf, s.seq)
	return buf, nil
}

// UnmarshalSnapshot decodes a snapshot previously produced by
// MarshalBinary.
func UnmarshalSnapshot(data []byte) (amcast.Snapshot, error) {
	r := codec.NewReader(data)
	s := &snapshot{
		g:     amcast.GroupID(r.Uvarint()),
		clock: r.Uvarint(),
	}
	nPend := r.Count()
	s.pend = make(map[amcast.MsgID]*pend, nPend)
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
		s.pend[id] = p
	}
	nDel := r.Count()
	s.delivered = &amcast.IDSet{}
	for i := 0; i < nDel && r.Err() == nil; i++ {
		// A false entry is absent, as the map lookup treated it.
		if id := amcast.MsgID(r.Uvarint()); r.Bool() {
			s.delivered.Add(id)
		}
	}
	nD := r.Count()
	s.deliveries = make([]amcast.Delivery, 0, nD)
	for i := 0; i < nD && r.Err() == nil; i++ {
		s.deliveries = append(s.deliveries, r.Delivery())
	}
	s.seq = r.Uvarint()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("skeen: snapshot decode: %w", err)
	}
	return s, nil
}
