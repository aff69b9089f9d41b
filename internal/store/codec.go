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
	buf = binary.AppendUvarint(buf, uint64(len(s.orderedFrom)))
	for _, w := range codec.SortedKeys(s.orderedFrom) {
		buf = binary.AppendUvarint(buf, uint64(uint32(w)))
		buf = binary.AppendUvarint(buf, uint64(s.orderedFrom[w]))
	}
	return buf
}

// queue is a shard's order queue as of one state: its window of
// undelivered ids, [delivered, next), and the orders in it, shared by
// prefix like a clone's.
type queue struct {
	delivered, nextOrder uint64
	orders               []order
}

func (s *Shard) queue() queue {
	return queue{delivered: s.delivered, nextOrder: s.nextOrder, orders: slices.Clip(s.pending)}
}

// shard returns a shard holding the queue and nothing else: the state a
// record written against the queue's end is read against.
func (q queue) shard() *Shard {
	return &Shard{delivered: q.delivered, nextOrder: q.nextOrder, pending: q.orders}
}

// appendFrame appends one frame holding the queue's orders with ids from
// from on (clamped to the window).
func (q queue) appendFrame(buf []byte, from uint64) []byte {
	from = min(max(from, q.delivered), q.nextOrder)
	orders := q.orders[from-q.delivered:]
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

// AppendBinary appends the shard's canonical serialization: the record
// DecodeShard reads and Digest hashes.
func (s *Shard) AppendBinary(buf []byte) []byte {
	return s.queue().appendFrame(s.appendTables(buf), s.delivered)
}

// decodeTables reads an appendTables record from r. The result has no
// orders yet: readOrders fills the window, ordersComplete closes it. The
// window's orders from known on must fit in what r has left; those below
// are held elsewhere (0: nowhere).
func decodeTables(r *codec.Reader, known uint64) *Shard {
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
	if r.Err() == nil && (s.delivered > s.nextOrder || s.nextOrder-max(s.delivered, min(known, s.nextOrder)) > uint64(r.Len())) {
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
	if s.pending == nil {
		s.pending = make([]order, 0, s.nextOrder-s.delivered)
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
	s := decodeTables(r, 0)
	if r.Err() == nil {
		s.readOrders(r, 0)
		s.ordersComplete(r)
	}
	return s
}

// The executor's record (amcast.BinarySnapshot) nests the engine's: its
// body is the engine's body behind its length, then the store state
// without its orders — shard tables, optional mirror tables, delivered-
// prefix watermark, always in full — and an instalment is the engine's
// instalment behind its length, then one order frame for the shard and,
// when there is a mirror, one for the mirror, each holding the orders its
// queue gained since the mark (for a journal: since the previous
// instalment) and still has:
//
//	record     := body ‖ instalment…
//	body       := u32le n ‖ n bytes of engine body ‖ tables ‖ bool ‖ [tables] ‖ uvarint watermark
//	instalment := u32le n ‖ n bytes of engine instalment ‖ uvarint frames (1|2) ‖ frame ‖ [frame]
//
// The mirror is journaled like the shard rather than rebuilt from it on
// recovery: its point is to have been computed separately, and a replica
// divergence from before a crash has to survive the crash to be found.

var (
	_ amcast.DeltaEngine    = (*Executor)(nil)
	_ amcast.BinarySnapshot = (*execSnapshot)(nil)
)

// execSnapshot is the executor's amcast.BinarySnapshot: the engine's
// snapshot, the store's body and its order queues.
type execSnapshot struct {
	eng    amcast.Snapshot
	body   []byte
	shard  queue
	mirror *queue
}

func (s *execSnapshot) SnapshotGroup() amcast.GroupID { return s.eng.SnapshotGroup() }

// state returns the executor's store state over eng, its body in the
// executor's buffer.
func (e *Executor) state(eng amcast.Snapshot) *execSnapshot {
	buf := e.shard.appendTables(e.buf[:0])
	buf = codec.AppendBool(buf, e.mirror != nil)
	if e.mirror != nil {
		buf = e.mirror.appendTables(buf)
	}
	e.buf = binary.AppendUvarint(buf, e.watermark)
	s := &execSnapshot{eng: eng, body: e.buf, shard: e.shard.queue()}
	if e.mirror != nil {
		q := e.mirror.queue()
		s.mirror = &q
	}
	return s
}

// Snapshot implements amcast.SnapshotEngine: engine and store state are
// captured together, so crash/recovery replay (chaos WAL, Paxos log)
// rebuilds application state alongside protocol state. The delivered-
// prefix watermark is part of the state: recovery replay re-advances it
// to (at least) its pre-crash value before any new traffic flows.
func (e *Executor) Snapshot() amcast.Snapshot {
	s := e.state(e.eng.Snapshot())
	s.body = slices.Clone(s.body)
	return s
}

// split appends the record of s, the engine's sections as eng writes
// them (nil: empty), the frames holding the orders from from's queue ends
// on.
func (s *execSnapshot) split(body, tail []byte, eng func(body, tail []byte) ([]byte, []byte, error), from execMark) ([]byte, []byte, error) {
	body, bodyAt := reserveLen(body)
	tail, tailAt := reserveLen(tail)
	var err error
	if eng != nil {
		body, tail, err = eng(body, tail)
	}
	if err == nil {
		err = cmp.Or(patchLen(body, bodyAt), patchLen(tail, tailAt))
	}
	if err != nil {
		return nil, nil, err
	}
	body = append(body, s.body...)
	if s.mirror == nil {
		return body, s.shard.appendFrame(binary.AppendUvarint(tail, 1), from.shard), nil
	}
	tail = s.shard.appendFrame(binary.AppendUvarint(tail, 2), from.shard)
	return body, s.mirror.appendFrame(tail, from.mirror), nil
}

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

// AppendSplit implements amcast.BinarySnapshot. The engine snapshot must
// itself be an amcast.BinarySnapshot.
func (s *execSnapshot) AppendSplit(body, tail []byte, prev amcast.Snapshot) ([]byte, []byte, error) {
	bs, ok := s.eng.(amcast.BinarySnapshot)
	if !ok {
		return nil, nil, fmt.Errorf("store: engine snapshot %T has no binary form", s.eng)
	}
	var from execMark
	var prevEng amcast.Snapshot
	if prev != nil {
		p, ok := prev.(*execSnapshot)
		if !ok {
			return nil, nil, fmt.Errorf("store: snapshot tail split against foreign snapshot %T", prev)
		}
		if p.shard.nextOrder > s.shard.nextOrder {
			return nil, nil, fmt.Errorf("store: snapshot tail split against an order log ending at %d, the snapshot's ends at %d", p.shard.nextOrder, s.shard.nextOrder)
		}
		from, prevEng = p.mark(), p.eng
	}
	return s.split(body, tail, func(body, tail []byte) ([]byte, []byte, error) {
		return bs.AppendSplit(body, tail, prevEng)
	}, from)
}

// execMark is the executor's amcast.Mark: the engine's, and where the
// shard's and the mirror's order logs ended.
type execMark struct {
	eng           amcast.Mark
	shard, mirror uint64
}

// mark returns where the snapshot's order logs end.
func (s *execSnapshot) mark() execMark {
	m := execMark{shard: s.shard.nextOrder}
	if s.mirror != nil {
		m.mirror = s.mirror.nextOrder
	}
	return m
}

// Mark implements amcast.DeltaEngine: nil when the engine underneath
// writes no deltas.
func (e *Executor) Mark() amcast.Mark {
	de, ok := e.eng.(amcast.DeltaEngine)
	if !ok {
		return nil
	}
	m := execMark{eng: de.Mark(), shard: e.shard.nextOrder}
	if m.eng == nil {
		return nil
	}
	if e.mirror != nil {
		m.mirror = e.mirror.nextOrder
	}
	return m
}

// AppendDelta implements amcast.DeltaEngine.
func (e *Executor) AppendDelta(body, tail []byte, since amcast.Mark) ([]byte, []byte, error) {
	m, ok := since.(execMark)
	de, isDelta := e.eng.(amcast.DeltaEngine)
	if !ok && since != nil || !isDelta {
		return nil, nil, fmt.Errorf("store: delta against a foreign mark %v", since)
	}
	return e.state(nil).split(body, tail, func(body, tail []byte) ([]byte, []byte, error) {
		return de.AppendDelta(body, tail, m.eng)
	}, m)
}

// ApplyDelta implements amcast.DeltaEngine. The store half is read and
// checked first, the engine's record applied next, and only then is the
// store half installed, so that a failure anywhere leaves the executor as
// it was.
func (e *Executor) ApplyDelta(record []byte) error {
	de, ok := e.eng.(amcast.DeltaEngine)
	if !ok {
		return fmt.Errorf("store: delta applied over engine %T, which takes none", e.eng)
	}
	st, eng, err := readRecord(record, e.shard, e.mirror)
	if err != nil {
		return fmt.Errorf("store: delta: %w", err)
	}
	if err := de.ApplyDelta(eng); err != nil {
		return err
	}
	e.setState(st)
	return nil
}

// Restore implements amcast.SnapshotEngine: the store's half of the
// snapshot's record, written against the snapshot's own order queues, is
// read against shards holding them — the orders are shared, not copied —
// the engine restores its own snapshot, and the store half is installed.
// The snapshot stays usable for further restores.
func (e *Executor) Restore(snap amcast.Snapshot) error {
	s, ok := snap.(*execSnapshot)
	if !ok {
		return fmt.Errorf("store: snapshot type %T is not an executor snapshot", snap)
	}
	if g := s.SnapshotGroup(); g != e.eng.Group() {
		return fmt.Errorf("store: snapshot of group %d restored into group %d", g, e.eng.Group())
	}
	body, tail, _ := s.split(nil, nil, nil, s.mark())
	var mirror *Shard // nil: the executor keeps none
	if e.mirror != nil && s.mirror != nil {
		mirror = s.mirror.shard()
	} else if e.mirror != nil {
		mirror = &Shard{}
	}
	st, _, err := readRecord(amcast.JoinSnapshot(body, tail), s.shard.shard(), mirror)
	if err != nil {
		return fmt.Errorf("store: restore: %w", err)
	}
	if err := e.eng.Restore(s.eng); err != nil {
		return err
	}
	e.setState(st)
	return nil
}

// UnmarshalSnapshot decodes an executor snapshot: a body followed by one
// instalment (MarshalBinary) or by the journal a persister accumulated.
// engDecode decodes the embedded engine snapshot — pass the
// UnmarshalSnapshot of the protocol package the deployment runs (core,
// skeen, hierarchical).
func UnmarshalSnapshot(data []byte, engDecode func([]byte) (amcast.Snapshot, error)) (amcast.Snapshot, error) {
	empty := &Shard{}
	st, engRec, err := readRecord(data, empty, empty)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot decode: %w", err)
	}
	eng, err := engDecode(engRec)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot decode: %w", err)
	}
	return (&Executor{shard: st.shard, mirror: st.mirror, watermark: st.watermark}).state(eng), nil
}

// storeState is what a record makes of the store.
type storeState struct {
	shard, mirror *Shard
	watermark     uint64
}

// setState replaces the store state. An executor that keeps a mirror
// takes the shard's copy for one the record lacks.
func (e *Executor) setState(st storeState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mirror != nil && st.mirror == nil {
		st.mirror = st.shard.Clone()
	}
	e.shard, e.mirror, e.watermark = st.shard, st.mirror, st.watermark
}

// readRecord reads an executor record written against the state whose
// shard and mirror are given — empty shards for a whole record — and
// returns the store state it makes and the engine's record, its body
// joined with its instalments. A nil mirror keeps none: a mirror in the
// record is stepped over (it mirrors the shard).
func readRecord(rec []byte, shard, mirror *Shard) (st storeState, eng []byte, err error) {
	r := codec.NewReader(rec)
	pieces := [][]byte{lenSection(r)}
	st.shard = decodeTables(r, shard.nextOrder)
	if r.Bool() {
		known := shard.nextOrder
		if mirror != nil {
			known = mirror.nextOrder
		}
		st.mirror = decodeTables(r, known)
	}
	st.watermark = r.Uvarint()
	keepMirror := st.mirror != nil && mirror != nil
	st.shard.continueFrom(r, shard)
	if keepMirror {
		st.mirror.continueFrom(r, mirror)
	}
	var shardEnd, mirrorEnd uint64
	for r.Err() == nil && r.Len() > 0 {
		pieces = append(pieces, lenSection(r))
		frames := r.Uvarint()
		if r.Err() == nil && frames != 1 && frames != 2 {
			r.Fail(fmt.Errorf("store: instalment of %d order frames", frames))
		}
		if r.Err() != nil {
			break
		}
		shardEnd = st.shard.readOrders(r, shardEnd)
		if frames == 2 && keepMirror {
			mirrorEnd = st.mirror.readOrders(r, mirrorEnd)
		} else if frames == 2 { // a mirror kept by nobody, or by the writer only
			r.Uvarint()
			r.Uvarint()
			section(r, r.Uvarint())
		}
	}
	st.shard.ordersComplete(r)
	if keepMirror {
		st.mirror.ordersComplete(r)
	} else {
		st.mirror = nil
	}
	if err := r.Close(); err != nil {
		return st, nil, err
	}
	return st, slices.Concat(pieces...), nil
}

// lenSection reads a section behind its u32le length.
func lenSection(r *codec.Reader) []byte {
	n := r.BytesN(4)
	if n == nil {
		return nil
	}
	return section(r, uint64(binary.LittleEndian.Uint32(n)))
}

// continueFrom fills the window of s, a shard decoded without orders,
// with the orders prev — the shard the record was written against — still
// holds: the frames behind supply those prev's queue had not reached.
func (s *Shard) continueFrom(r *codec.Reader, prev *Shard) {
	if r.Err() == nil && (s.delivered < prev.delivered || s.nextOrder < prev.nextOrder) {
		r.Fail(fmt.Errorf("store: record moves the order window [%d, %d) back to [%d, %d)", prev.delivered, prev.nextOrder, s.delivered, s.nextOrder))
	}
	if r.Err() != nil {
		return
	}
	// Shared like a clone's: what readOrders appends lands beyond what
	// prev, and any clone of it, can see.
	s.pending = prev.pending[min(s.delivered, prev.nextOrder)-prev.delivered:]
}
