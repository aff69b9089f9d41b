package hierarchical

import (
	"encoding/binary"
	"fmt"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// Binary snapshot codec for the hierarchical engine. The seen set is
// encoded as it was when it was a map[MsgID]bool: ascending ids, each
// with true.

var _ amcast.BinarySnapshot = (*snapshot)(nil)

// MarshalBinary implements amcast.BinarySnapshot.
func (s *snapshot) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 128)
	buf = binary.AppendUvarint(buf, uint64(uint32(s.g)))
	buf = binary.AppendUvarint(buf, uint64(s.seen.Len()))
	s.seen.Ascend(func(id amcast.MsgID) bool {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = codec.AppendBool(buf, true)
		return true
	})
	buf = binary.AppendUvarint(buf, uint64(len(s.deliveries)))
	for _, d := range s.deliveries {
		buf = codec.AppendDelivery(buf, d)
	}
	buf = binary.AppendUvarint(buf, s.seq)
	buf = binary.AppendUvarint(buf, s.relayed)
	return buf, nil
}

// UnmarshalSnapshot decodes a snapshot previously produced by
// MarshalBinary.
func UnmarshalSnapshot(data []byte) (amcast.Snapshot, error) {
	r := codec.NewReader(data)
	s := &snapshot{g: amcast.GroupID(r.Uvarint())}
	nSeen := r.Count()
	s.seen = &amcast.IDSet{}
	for i := 0; i < nSeen && r.Err() == nil; i++ {
		// A false entry is absent, as the map lookup treated it.
		if id := amcast.MsgID(r.Uvarint()); r.Bool() {
			s.seen.Add(id)
		}
	}
	nD := r.Count()
	s.deliveries = make([]amcast.Delivery, 0, nD)
	for i := 0; i < nD && r.Err() == nil; i++ {
		s.deliveries = append(s.deliveries, r.Delivery())
	}
	s.seq = r.Uvarint()
	s.relayed = r.Uvarint()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("hierarchical: snapshot decode: %w", err)
	}
	return s, nil
}
