package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/gtpcc"
)

// Binary codecs for the shard and the combined executor snapshot. Like
// the engine snapshot codecs, map iteration is sorted so the same state
// always marshals to the same bytes — recovered and never-crashed
// shards are diffable at the byte level, not just by digest.
//
// A shard encodes as its tables — configuration, counters, stock and
// customer rows, sourcing totals; a kilobyte or two whatever the run
// length — followed by its order queue as order frames:
//
//	frame := uvarint first ‖ uvarint count ‖ uvarint size ‖ count × order
//	order := uvarint cust ‖ uvarint total ‖ uvarint lines ‖ lines × (item, supply, qty)
//
// A frame holds the orders with ids [first, first+count), ids implicit,
// and the byte size of what follows so that a reader can step over it.
// The tables fix the window of undelivered ids, [delivered, nextOrder);
// the frames behind them must be ascending and disjoint, stay below
// nextOrder, and cover the window exactly once. They may also hold ids
// below the window — orders delivered since the frame was written —
// which are skipped, and need not hold ids that were never undelivered
// at a snapshot. AppendBinary writes the canonical form: one frame, the
// window.

// appendTables appends everything but the order queue.
func (s *Shard) appendTables(buf []byte) []byte {
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
	for i := range s.stockQty {
		buf = binary.AppendUvarint(buf, uint64(uint32(s.stockQty[i])))
		buf = binary.AppendUvarint(buf, uint64(s.stockYTD[i]))
		buf = binary.AppendUvarint(buf, uint64(uint32(s.stockCnt[i])))
	}
	for c := range s.balance {
		buf = binary.AppendUvarint(buf, uint64(s.balance[c]))
		buf = binary.AppendUvarint(buf, uint64(s.ytdPaid[c]))
		buf = binary.AppendUvarint(buf, uint64(uint32(s.payCnt[c])))
		buf = binary.AppendUvarint(buf, uint64(s.lastOrder[c]))
	}
	ws := make([]amcast.GroupID, 0, len(s.orderedFrom))
	for w := range s.orderedFrom {
		ws = append(ws, w)
	}
	slices.Sort(ws)
	buf = binary.AppendUvarint(buf, uint64(len(ws)))
	for _, w := range ws {
		buf = binary.AppendUvarint(buf, uint64(uint32(w)))
		buf = binary.AppendUvarint(buf, uint64(s.orderedFrom[w]))
	}
	return buf
}

// appendOrders appends one frame holding the undelivered orders with
// ids from from on (clamped to the window).
func (s *Shard) appendOrders(buf []byte, from uint64) []byte {
	from = min(max(from, s.delivered), s.nextOrder)
	orders := s.pending[from-s.delivered:]
	buf = binary.AppendUvarint(buf, from)
	buf = binary.AppendUvarint(buf, uint64(len(orders)))
	start := len(buf)
	for _, o := range orders {
		buf = binary.AppendUvarint(buf, uint64(uint32(o.cust)))
		buf = binary.AppendUvarint(buf, uint64(o.total))
		buf = binary.AppendUvarint(buf, uint64(len(o.lines)))
		for _, l := range o.lines {
			buf = binary.AppendUvarint(buf, uint64(uint32(l.Item)))
			buf = binary.AppendUvarint(buf, uint64(uint32(l.Supply)))
			buf = binary.AppendUvarint(buf, uint64(uint32(l.Qty)))
		}
	}
	// The size goes in front of what it measures: one move of the frame,
	// cheaper than walking the orders twice.
	size := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64), uint64(len(buf)-start))
	return slices.Insert(buf, start, size...)
}

// AppendBinary appends the shard's canonical serialization (the same
// field walk Digest hashes, plus the configuration needed to rebuild).
func (s *Shard) AppendBinary(buf []byte) []byte {
	return s.appendOrders(s.appendTables(buf), s.delivered)
}

// decodeTables reads an appendTables record from r. The result has no
// orders yet: readOrders fills the window, ordersComplete closes it.
func decodeTables(r *codec.Reader) *Shard {
	s := &Shard{
		cfg: Config{
			Warehouse: amcast.GroupID(r.Uvarint()),
			Items:     r.Count(),
			Customers: r.Count(),
			Seed:      int64(r.Uvarint()),
		},
		orderedFrom: make(map[amcast.GroupID]int64),
	}
	// Apply folds keys into the tables modulo their sizes.
	if r.Err() == nil && (s.cfg.Items == 0 || s.cfg.Customers == 0) {
		r.Fail(fmt.Errorf("store: shard of %d items and %d customers", s.cfg.Items, s.cfg.Customers))
	}
	s.applied = r.Uvarint()
	s.ytd = int64(r.Uvarint())
	s.paidTotal = int64(r.Uvarint())
	s.delivered = r.Uvarint()
	s.deliveredSum = int64(r.Uvarint())
	s.nextOrder = r.Uvarint()
	s.refills = int64(r.Uvarint())
	if r.Err() == nil && (s.delivered > s.nextOrder || s.nextOrder-s.delivered > uint64(r.Len())) {
		r.Fail(fmt.Errorf("store: order window [%d, %d) in a %d-byte record", s.delivered, s.nextOrder, r.Len()))
	}
	if r.Err() != nil {
		return s
	}
	nItems, nCust := s.cfg.Items, s.cfg.Customers
	s.stockQty = make([]int32, 0, nItems)
	s.stockYTD = make([]int64, 0, nItems)
	s.stockCnt = make([]int32, 0, nItems)
	for i := 0; i < nItems && r.Err() == nil; i++ {
		s.stockQty = append(s.stockQty, int32(r.Uvarint()))
		s.stockYTD = append(s.stockYTD, int64(r.Uvarint()))
		s.stockCnt = append(s.stockCnt, int32(r.Uvarint()))
	}
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
	nOF := r.Count()
	for i := 0; i < nOF && r.Err() == nil; i++ {
		w := amcast.GroupID(r.Uvarint())
		s.orderedFrom[w] = int64(r.Uvarint())
	}
	s.pending = make([]order, 0, s.nextOrder-s.delivered)
	return s
}

// readOrders reads one order frame from r into the shard's window. end
// is where the frame before it ended (0 for the first) and the frame's
// own end is returned: frames ascend and do not overlap. Orders below
// the window are stepped over — a whole frame of them without looking
// inside — and the first one kept must be the one the window lacks next.
func (s *Shard) readOrders(r *codec.Reader, end uint64) uint64 {
	first, count, size := r.Uvarint(), r.Uvarint(), r.Uvarint()
	if r.Err() != nil {
		return end
	}
	if first < end || first > s.nextOrder || count > s.nextOrder-first || count > size {
		r.Fail(fmt.Errorf("store: %d-byte order frame [%d, +%d) after a frame ending at %d, in a log ending at %d", size, first, count, end, s.nextOrder))
		return end
	}
	end = first + count
	frame := section(r, size)
	if end <= s.delivered {
		return end
	}
	fr := codec.NewReader(frame)
	for id := first; id < end && fr.Err() == nil; id++ {
		o := order{cust: int32(fr.Uvarint()), total: int64(fr.Uvarint())}
		nLines := fr.Count()
		if id < s.delivered {
			for j := 0; j < 3*nLines && fr.Err() == nil; j++ {
				fr.Uvarint()
			}
			continue
		}
		if want := s.delivered + uint64(len(s.pending)); id != want {
			fr.Fail(fmt.Errorf("store: order frame starts at %d, order %d is missing", id, want))
			break
		}
		// deliverOrders credits the customer by index.
		if o.cust < 0 || int(o.cust) >= s.cfg.Customers {
			fr.Fail(fmt.Errorf("store: order %d of customer %d, the shard has %d", id, o.cust, s.cfg.Customers))
			break
		}
		o.lines = make([]gtpcc.OrderLine, 0, min(nLines, fr.Len()))
		for j := 0; j < nLines && fr.Err() == nil; j++ {
			o.lines = append(o.lines, gtpcc.OrderLine{
				Item:   int32(fr.Uvarint()),
				Supply: amcast.GroupID(fr.Uvarint()),
				Qty:    int32(fr.Uvarint()),
			})
		}
		s.pending = append(s.pending, o)
	}
	if err := fr.Close(); err != nil {
		r.Fail(fmt.Errorf("store: order frame [%d, %d): %w", first, end, err))
	}
	return end
}

// section reads a sub-record whose length n came first.
func section(r *codec.Reader, n uint64) []byte {
	if n > uint64(r.Len()) {
		r.Fail(fmt.Errorf("store: %d-byte section, %d bytes left", n, r.Len()))
		return nil
	}
	return r.BytesN(int(n))
}

// ordersComplete latches an error in r unless the frames read so far
// covered the shard's whole window.
func (s *Shard) ordersComplete(r *codec.Reader) {
	if have := s.delivered + uint64(len(s.pending)); r.Err() == nil && have != s.nextOrder {
		r.Fail(fmt.Errorf("store: orders [%d, %d) are in no frame", have, s.nextOrder))
	}
}

// DecodeShard reads an AppendBinary record from r.
func DecodeShard(r *codec.Reader) *Shard {
	s := decodeTables(r)
	if r.Err() == nil {
		s.readOrders(r, 0)
		s.ordersComplete(r)
	}
	return s
}

var _ amcast.TailSnapshot = (*execSnapshot)(nil)

// The executor snapshot's body is the engine snapshot's body behind its
// length, then the store state without its orders: shard tables,
// optional mirror tables, delivered-prefix watermark. An instalment of
// its tail (amcast.TailSnapshot) is the engine's instalment behind its
// length, then one order frame for the shard and, when there is a
// mirror, one for the mirror — each holding the orders its queue gained
// since the previous snapshot and still has:
//
//	body       := u32le n ‖ n bytes of engine body ‖ tables ‖ bool ‖ [tables] ‖ uvarint watermark
//	instalment := u32le n ‖ n bytes of engine tail ‖ uvarint frames (1|2) ‖ frame ‖ [frame]
//
// The mirror is journaled like the shard rather than rebuilt from it on
// recovery: its point is to have been computed separately, and a replica
// divergence from before a crash has to survive the crash to be found.

// reserveLen appends room for a u32le length; patchLen fills it in with
// the number of bytes appended since.
func reserveLen(buf []byte) ([]byte, int) { return append(buf, 0, 0, 0, 0), len(buf) }

func patchLen(buf []byte, at int) error {
	n := len(buf) - at - 4
	if n > math.MaxUint32 {
		return fmt.Errorf("store: %d-byte engine snapshot section", n)
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(n))
	return nil
}

// MarshalBinary implements amcast.BinarySnapshot.
func (s *execSnapshot) MarshalBinary() ([]byte, error) {
	body, tail, err := s.AppendSplit(nil, nil, nil)
	return amcast.JoinSnapshot(body, tail), err
}

// AppendSplit implements amcast.TailSnapshot. The inner engine snapshot
// must itself be an amcast.BinarySnapshot; when it has no tail of its
// own its instalments are empty.
func (s *execSnapshot) AppendSplit(body, tail []byte, prev amcast.Snapshot) ([]byte, []byte, error) {
	var p execSnapshot
	if prev != nil {
		ps, ok := prev.(*execSnapshot)
		if !ok {
			return nil, nil, fmt.Errorf("store: snapshot tail split against foreign snapshot %T", prev)
		}
		p = *ps
	}
	body, bodyAt := reserveLen(body)
	tail, tailAt := reserveLen(tail)
	var err error
	switch eng := s.eng.(type) {
	case amcast.TailSnapshot:
		body, tail, err = eng.AppendSplit(body, tail, p.eng)
	case amcast.BinarySnapshot:
		var data []byte
		data, err = eng.MarshalBinary()
		body = append(body, data...)
	default:
		err = fmt.Errorf("store: engine snapshot %T has no binary form", s.eng)
	}
	if err == nil {
		err = cmp.Or(patchLen(body, bodyAt), patchLen(tail, tailAt))
	}
	if err != nil {
		return nil, nil, err
	}
	body = s.shard.appendTables(body)
	body = codec.AppendBool(body, s.mirror != nil)
	frames := uint64(1)
	if s.mirror != nil {
		body = s.mirror.appendTables(body)
		frames = 2
	}
	body = binary.AppendUvarint(body, s.watermark)
	tail = binary.AppendUvarint(tail, frames)
	if tail, err = s.shard.appendOrdersSince(tail, p.shard); err == nil && s.mirror != nil {
		tail, err = s.mirror.appendOrdersSince(tail, p.mirror)
	}
	return body, tail, err
}

// appendOrdersSince appends the frame of s's orders that prev, an
// earlier state of s or nil, did not have yet.
func (s *Shard) appendOrdersSince(buf []byte, prev *Shard) ([]byte, error) {
	from := uint64(0)
	if prev != nil {
		if from = prev.nextOrder; from > s.nextOrder {
			return nil, fmt.Errorf("store: snapshot tail split against an order log ending at %d, the snapshot's ends at %d", from, s.nextOrder)
		}
	}
	return s.appendOrders(buf, from), nil
}

// UnmarshalSnapshot decodes an executor snapshot: a body followed by one
// instalment (MarshalBinary) or by the journal a persister accumulated.
// engDecode decodes the embedded engine snapshot — pass the
// UnmarshalSnapshot of the protocol package the deployment runs (core,
// skeen, hierarchical).
func UnmarshalSnapshot(data []byte, engDecode func([]byte) (amcast.Snapshot, error)) (amcast.Snapshot, error) {
	if len(data) < 4 || uint64(binary.LittleEndian.Uint32(data)) > uint64(len(data)-4) {
		return nil, fmt.Errorf("store: snapshot decode: bad engine-body length")
	}
	end := 4 + int(binary.LittleEndian.Uint32(data))
	engPieces := [][]byte{data[4:end]} // the engine's body and, per instalment, a piece of its tail
	r := codec.NewReader(data[end:])
	s := &execSnapshot{shard: decodeTables(r)}
	if r.Bool() {
		s.mirror = decodeTables(r)
	}
	s.watermark = r.Uvarint()
	var shardEnd, mirrorEnd uint64
	for r.Err() == nil && r.Len() > 0 {
		if n := r.BytesN(4); n != nil {
			engPieces = append(engPieces, section(r, uint64(binary.LittleEndian.Uint32(n))))
		}
		frames := r.Uvarint()
		if r.Err() == nil && frames != 1 && frames != 2 {
			r.Fail(fmt.Errorf("store: instalment of %d order frames", frames))
		}
		if r.Err() != nil {
			break
		}
		shardEnd = s.shard.readOrders(r, shardEnd)
		if frames == 2 && s.mirror != nil {
			mirrorEnd = s.mirror.readOrders(r, mirrorEnd)
		} else if frames == 2 { // written while the executor had a mirror
			r.Uvarint()
			r.Uvarint()
			section(r, r.Uvarint())
		}
	}
	s.shard.ordersComplete(r)
	if s.mirror != nil {
		s.mirror.ordersComplete(r)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("store: snapshot decode: %w", err)
	}
	eng, err := engDecode(slices.Concat(engPieces...))
	if err != nil {
		return nil, fmt.Errorf("store: snapshot decode: %w", err)
	}
	s.eng = eng
	return s, nil
}
