package store

import (
	"encoding/binary"
	"fmt"
	"sort"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/gtpcc"
)

// Binary codecs for the shard and the combined executor snapshot. Like
// the engine snapshot codecs, map iteration is sorted so the same state
// always marshals to the same bytes — recovered and never-crashed
// shards are diffable at the byte level, not just by digest.

// AppendBinary appends the shard's canonical serialization (the same
// field walk Digest hashes, plus the configuration needed to rebuild).
func (s *Shard) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(uint32(s.cfg.Warehouse)))
	buf = binary.AppendUvarint(buf, uint64(s.cfg.Items))
	buf = binary.AppendUvarint(buf, uint64(s.cfg.Customers))
	buf = binary.AppendUvarint(buf, uint64(s.cfg.Seed))
	buf = binary.AppendUvarint(buf, s.applied)
	buf = binary.AppendUvarint(buf, uint64(s.ytd))
	buf = binary.AppendUvarint(buf, uint64(s.paidTotal))
	buf = binary.AppendUvarint(buf, s.delivered)
	buf = binary.AppendUvarint(buf, uint64(s.deliveredSum))
	buf = binary.AppendUvarint(buf, s.nextOrder)
	buf = binary.AppendUvarint(buf, uint64(s.refills))
	buf = binary.AppendUvarint(buf, uint64(len(s.stockQty)))
	for i := range s.stockQty {
		buf = binary.AppendUvarint(buf, uint64(uint32(s.stockQty[i])))
		buf = binary.AppendUvarint(buf, uint64(s.stockYTD[i]))
		buf = binary.AppendUvarint(buf, uint64(uint32(s.stockCnt[i])))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.balance)))
	for c := range s.balance {
		buf = binary.AppendUvarint(buf, uint64(s.balance[c]))
		buf = binary.AppendUvarint(buf, uint64(s.ytdPaid[c]))
		buf = binary.AppendUvarint(buf, uint64(uint32(s.payCnt[c])))
		buf = binary.AppendUvarint(buf, uint64(s.lastOrder[c]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.pending)))
	for _, o := range s.pending {
		buf = binary.AppendUvarint(buf, o.id)
		buf = binary.AppendUvarint(buf, uint64(uint32(o.cust)))
		buf = binary.AppendUvarint(buf, uint64(o.total))
		buf = binary.AppendUvarint(buf, uint64(len(o.lines)))
		for _, l := range o.lines {
			buf = binary.AppendUvarint(buf, uint64(uint32(l.Item)))
			buf = binary.AppendUvarint(buf, uint64(uint32(l.Supply)))
			buf = binary.AppendUvarint(buf, uint64(uint32(l.Qty)))
		}
	}
	ws := make([]amcast.GroupID, 0, len(s.orderedFrom))
	for w := range s.orderedFrom {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ws)))
	for _, w := range ws {
		buf = binary.AppendUvarint(buf, uint64(uint32(w)))
		buf = binary.AppendUvarint(buf, uint64(s.orderedFrom[w]))
	}
	return buf
}

// DecodeShard reads an AppendBinary record from r.
func DecodeShard(r *codec.Reader) *Shard {
	s := &Shard{
		cfg: Config{
			Warehouse: amcast.GroupID(r.Uvarint()),
			Items:     int(r.Uvarint()),
			Customers: int(r.Uvarint()),
			Seed:      int64(r.Uvarint()),
		},
		orderedFrom: make(map[amcast.GroupID]int64),
	}
	s.applied = r.Uvarint()
	s.ytd = int64(r.Uvarint())
	s.paidTotal = int64(r.Uvarint())
	s.delivered = r.Uvarint()
	s.deliveredSum = int64(r.Uvarint())
	s.nextOrder = r.Uvarint()
	s.refills = int64(r.Uvarint())
	nItems := r.Count()
	s.stockQty = make([]int32, 0, nItems)
	s.stockYTD = make([]int64, 0, nItems)
	s.stockCnt = make([]int32, 0, nItems)
	for i := 0; i < nItems && r.Err() == nil; i++ {
		s.stockQty = append(s.stockQty, int32(r.Uvarint()))
		s.stockYTD = append(s.stockYTD, int64(r.Uvarint()))
		s.stockCnt = append(s.stockCnt, int32(r.Uvarint()))
	}
	nCust := r.Count()
	s.balance = make([]int64, 0, nCust)
	s.ytdPaid = make([]int64, 0, nCust)
	s.payCnt = make([]int32, 0, nCust)
	s.lastOrder = make([]int64, 0, nCust)
	for c := 0; c < nCust && r.Err() == nil; c++ {
		s.balance = append(s.balance, int64(r.Uvarint()))
		s.ytdPaid = append(s.ytdPaid, int64(r.Uvarint()))
		s.payCnt = append(s.payCnt, int32(r.Uvarint()))
		s.lastOrder = append(s.lastOrder, int64(r.Uvarint()))
	}
	nPend := r.Count()
	s.pending = make([]order, 0, nPend)
	for i := 0; i < nPend && r.Err() == nil; i++ {
		o := order{
			id:    r.Uvarint(),
			cust:  int32(r.Uvarint()),
			total: int64(r.Uvarint()),
		}
		nLines := r.Count()
		o.lines = make([]gtpcc.OrderLine, 0, nLines)
		for j := 0; j < nLines && r.Err() == nil; j++ {
			o.lines = append(o.lines, gtpcc.OrderLine{
				Item:   int32(r.Uvarint()),
				Supply: amcast.GroupID(r.Uvarint()),
				Qty:    int32(r.Uvarint()),
			})
		}
		s.pending = append(s.pending, o)
	}
	nOF := r.Count()
	for i := 0; i < nOF && r.Err() == nil; i++ {
		w := amcast.GroupID(r.Uvarint())
		s.orderedFrom[w] = int64(r.Uvarint())
	}
	return s
}

var _ amcast.TailSnapshot = (*execSnapshot)(nil)

// MarshalBinary implements amcast.BinarySnapshot.
func (s *execSnapshot) MarshalBinary() ([]byte, error) {
	body, tail, err := s.MarshalSplit(0)
	return amcast.JoinSnapshot(body, tail), err
}

// MarshalSplit implements amcast.TailSnapshot. The store state — shard,
// optional mirror, delivered-prefix watermark — goes first behind its
// length, the inner engine snapshot (which must itself be an
// amcast.BinarySnapshot) last, so the engine's append-only tail, when
// it has one, is the tail of the whole encoding.
func (s *execSnapshot) MarshalSplit(from int) (body, tail []byte, err error) {
	var engBody []byte
	switch eng := s.eng.(type) {
	case amcast.TailSnapshot:
		engBody, tail, err = eng.MarshalSplit(from)
	case amcast.BinarySnapshot:
		if from != 0 {
			return nil, nil, fmt.Errorf("store: tail offset %d into engine snapshot %T, which has no tail", from, s.eng)
		}
		engBody, err = eng.MarshalBinary()
	default:
		err = fmt.Errorf("store: engine snapshot %T has no binary form", s.eng)
	}
	if err != nil {
		return nil, nil, err
	}
	st := s.shard.AppendBinary(make([]byte, 0, 1024))
	st = codec.AppendBool(st, s.mirror != nil)
	if s.mirror != nil {
		st = s.mirror.AppendBinary(st)
	}
	st = binary.AppendUvarint(st, s.watermark)
	body = make([]byte, 0, binary.MaxVarintLen64+len(st)+len(engBody))
	body = binary.AppendUvarint(body, uint64(len(st)))
	body = append(body, st...)
	return append(body, engBody...), tail, nil
}

// UnmarshalSnapshot decodes an executor snapshot. engDecode decodes the
// embedded engine snapshot — pass the UnmarshalSnapshot of the protocol
// package the deployment runs (core, skeen, hierarchical).
func UnmarshalSnapshot(data []byte, engDecode func([]byte) (amcast.Snapshot, error)) (amcast.Snapshot, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > uint64(len(data)-k) {
		return nil, fmt.Errorf("store: snapshot decode: bad store-state length")
	}
	end := k + int(n)
	r := codec.NewReader(data[k:end])
	s := &execSnapshot{shard: DecodeShard(r)}
	if r.Bool() {
		s.mirror = DecodeShard(r)
	}
	s.watermark = r.Uvarint()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("store: snapshot decode: %w", err)
	}
	eng, err := engDecode(data[end:])
	if err != nil {
		return nil, fmt.Errorf("store: snapshot decode: %w", err)
	}
	s.eng = eng
	return s, nil
}
