package history

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// Mark is a point in a history's change order: the sequence number the
// next log entry gets and the number of sweeps so far. Taking one changes
// nothing the history shows, so every holder keeps its own; it is only
// meaningful to the history that gave it.
type Mark struct{ seq, sweeps uint64 }

// Mark returns the current point in the history's change order. The
// first one starts the slot stamps: every slot then counts as unchanged,
// which it is, since the mark.
func (h *History) Mark() Mark {
	if h.stamp == nil {
		h.stamp = make([]uint64, len(h.nodes))
	}
	return Mark{seq: h.nextSeq, sweeps: h.sweeps}
}

// AppendDelta appends what changed since m, which ReadDelta applies to
// the history as it stood at m:
//
//	delta := 0 ‖ lastDlvd ‖ arena length ‖ count ‖ count × (slot ‖ slot record)
//	         ‖ free-list length ‖ nextSeq ‖ log length at m ‖ count ‖ count × entry
//	       | 1 ‖ AppendBinary image
//
// Between sweeps the history only grows: a slot's record changes in place
// or a slot is taken from the end of the free list or the arena, and the
// log is appended to. So the delta is the records of the slots stamped
// since m — a few more when a flag changed before m at the same sequence
// number, which rewrites them as they are — the free list's new length
// and the log entries appended. A sweep since m frees slots and drops log
// entries anywhere; the history is then small, and the delta is its image
// — as it is for a history that never gave a mark, and so has no stamps,
// and against the zero Mark, the empty history's.
func (h *History) AppendDelta(buf []byte, m Mark) []byte {
	if m == (Mark{}) || m.sweeps != h.sweeps || h.stamp == nil {
		return h.AppendBinary(append(buf, 1))
	}
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(h.last))
	buf = binary.AppendUvarint(buf, uint64(len(h.nodes)))
	n := 0
	for _, st := range h.stamp {
		if st >= m.seq {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for i, st := range h.stamp {
		if st >= m.seq {
			buf = binary.AppendUvarint(buf, uint64(i))
			buf = h.appendSlot(buf, i)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(h.free)))
	buf = binary.AppendUvarint(buf, h.nextSeq)
	from := len(h.log)
	for from > 0 && h.log[from-1].seq() >= m.seq {
		from--
	}
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, uint64(len(h.log)-from))
	return h.appendLogEntries(buf, h.log[from:])
}

// ReadDelta reads an AppendDelta record from r and checks it against h —
// against what link checks of a decoded history — touching nothing but
// the table of destination sets; it
// returns the function that applies it and returns the history it makes
// of h: h itself, brought forward in place — the work is the delta's, not
// the history's — or, for an image, the history decoded from it. A record
// that does not decode, was written against a history with another log or
// a shorter free list, or would leave a slot, a predecessor or a log entry
// that link rejects latches an error on r, and then the function must not
// be called.
func (h *History) ReadDelta(r *codec.Reader) (apply func() *History) {
	if r.Byte() == 1 {
		nh := Decode(r)
		return func() *History { return nh }
	}
	d := delta{last: amcast.MsgID(r.Uvarint()), n: r.Count()}
	for k := r.Count(); k > 0 && r.Err() == nil; k-- {
		sr := deltaSlot{s: r.Uvarint()}
		sr.nd, sr.f, sr.p = h.readSlot(r)
		d.slots = append(d.slots, sr)
	}
	d.free, d.nextSeq, d.from = r.Count(), r.Uvarint(), r.Count()
	d.log = readLogEntries(r, r.Count(), nil)
	if r.Err() == nil {
		if err := h.check(&d); err != nil {
			r.Fail(fmt.Errorf("history: delta: %w", err))
		}
	}
	return func() *History {
		h.apply(&d)
		return h
	}
}

// delta is a decoded AppendDelta record: the arena length n, the slots
// written, the free list's length, the log's length at the mark and the
// entries appended since.
type delta struct {
	last       amcast.MsgID
	n          int
	slots      []deltaSlot
	free, from int
	nextSeq    uint64
	log        []logEntry
}

type deltaSlot struct {
	s  uint64
	nd vertex
	f  uint8
	p  adj
}

// liveAfter reports whether slot s is live once d applies.
func (h *History) liveAfter(d *delta, s uint32) bool {
	if i, ok := slices.BinarySearchFunc(d.slots, uint64(s), func(sr deltaSlot, s uint64) int { return cmp.Compare(sr.s, s) }); ok {
		return d.slots[i].f&flagLive != 0
	}
	return int(s) < len(h.nodes) && h.flags[s]&flagLive != 0
}

// check verifies that d applies to h: between sweeps a live slot keeps its
// id and destinations and gains predecessors at the end of its list, a
// slot comes to life at the end of the arena or from the end of the free
// list with an id the history does not hold, and the log grows by entries
// numbered past the last one, over live slots.
func (h *History) check(d *delta) error {
	old := len(h.nodes)
	if d.n < old || d.free > len(h.free) || d.from != len(h.log) || d.nextSeq < h.nextSeq {
		return fmt.Errorf("arena %d, free list %d, log %d, next entry %d written against arena %d, free list %d, log %d, next entry %d",
			d.n, d.free, d.from, d.nextSeq, old, len(h.free), len(h.log), h.nextSeq)
	}
	born, ids := 0, make(map[amcast.MsgID]bool)
	for i, sr := range d.slots {
		s := uint32(sr.s)
		if sr.s >= uint64(d.n) || i > 0 && sr.s <= d.slots[i-1].s {
			return fmt.Errorf("slot %d out of order or past the arena's %d", sr.s, d.n)
		}
		wasLive := int(s) < old && h.flags[s]&flagLive != 0
		var kept uint32 // predecessors the slot keeps
		switch {
		case sr.f&flagLive == 0:
			if wasLive || int(s) >= old {
				return fmt.Errorf("slot %d freed between sweeps", s)
			}
			continue
		case wasLive:
			nd, p := &h.nodes[s], &h.preds[s]
			if sr.nd.id != nd.id || h.flags[s]&flagHasDst != 0 && !slices.Equal(sr.nd.dst, nd.dst) || sr.p.n < p.n {
				return fmt.Errorf("slot %d: %s rewritten as %s", s, nd.id, sr.nd.id)
			}
			for j := uint32(0); j < p.n; j++ {
				if sr.p.at(j) != p.at(j) {
					return fmt.Errorf("slot %d: predecessor %d rewritten", s, j)
				}
			}
			kept = p.n
		default:
			if _, held := h.slot(sr.nd.id); held || ids[sr.nd.id] {
				return fmt.Errorf("slot %d: message %s in two slots", s, sr.nd.id)
			}
			ids[sr.nd.id] = true
			if int(s) < old {
				born++
			}
		}
		for j := kept; j < sr.p.n; j++ {
			q := sr.p.at(j)
			if q == s || !h.liveAfter(d, q) {
				return fmt.Errorf("slot %d has a bad predecessor slot %d", s, q)
			}
			for k := uint32(0); k < j; k++ {
				if sr.p.at(k) == q {
					return fmt.Errorf("slot %d has predecessor slot %d twice", s, q)
				}
			}
		}
	}
	// The slots taken from the free list are its end; those past the old
	// arena are all written.
	if born != len(h.free)-d.free {
		return fmt.Errorf("%d free slots taken, the free list shrank by %d", born, len(h.free)-d.free)
	}
	for _, s := range h.free[d.free:] {
		if !h.liveAfter(d, s) {
			return fmt.Errorf("free slot %d taken but not written", s)
		}
	}
	for s := old; s < d.n; s++ {
		if !h.liveAfter(d, uint32(s)) {
			return fmt.Errorf("new slot %d not written", s)
		}
	}
	seq := h.nextSeq
	for _, le := range d.log {
		if le.seq() < seq || le.seq() >= d.nextSeq || !h.liveAfter(d, le.a) || le.b != noSlot && !h.liveAfter(d, le.b) {
			return fmt.Errorf("bad log entry %+v", le)
		}
		seq = le.seq() + 1
	}
	return nil
}

// apply brings h forward by d, which check accepted.
func (h *History) apply(d *delta) {
	for len(h.nodes) < d.n {
		h.nodes = append(h.nodes, vertex{})
		h.flags = append(h.flags, 0)
		h.mark = append(h.mark, 0)
		h.preds = append(h.preds, adj{})
		if h.stamp != nil {
			h.stamp = append(h.stamp, 0)
		}
	}
	kept := make([]uint32, len(d.slots))
	for i, sr := range d.slots {
		s := uint32(sr.s)
		if sr.f&flagLive == 0 {
			continue
		}
		nd := &h.nodes[s]
		if h.flags[s]&flagLive != 0 {
			kept[i] = h.preds[s].n
			if h.flags[s]&flagHasDst == 0 && len(sr.nd.dst) > 0 {
				nd.dst = sr.nd.dst
				h.countDst(nd.dst, 1)
			}
		} else {
			nd.id, nd.dst = sr.nd.id, sr.nd.dst
			h.index.put(uint64(nd.id), s)
			h.countDst(nd.dst, 1)
		}
		h.flags[s], h.preds[s] = sr.f, sr.p
	}
	// Successors last: a predecessor may be a slot born above.
	for i, sr := range d.slots {
		for j := kept[i]; sr.f&flagLive != 0 && j < sr.p.n; j++ {
			h.nodes[sr.p.at(j)].succ.add(uint32(sr.s))
		}
	}
	h.free = h.free[:d.free]
	h.log = append(h.log, d.log...)
	h.last, h.nextSeq = d.last, d.nextSeq
	h.closable, h.doomEpoch = false, 0
}
