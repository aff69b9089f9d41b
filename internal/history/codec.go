package history

import (
	"encoding/binary"
	"fmt"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// AppendBinary appends the history's encoding: lastDlvd, the arena slot
// by slot (a free slot is one zero byte; a live one its flags, id,
// destinations and predecessor slots), the free list and the log. Slots
// and predecessor order are written as they are, so a decoded history
// allocates, walks, prunes and encodes exactly like the original; the
// index, the successor lists (whose order nothing observes) and the
// msgsTo counters are derived on decode.
func (h *History) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(h.last))
	buf = binary.AppendUvarint(buf, uint64(len(h.nodes)))
	for i := range h.nodes {
		nd := &h.nodes[i]
		buf = append(buf, nd.flags)
		if nd.flags&flagLive == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(nd.id))
		buf = codec.AppendGroups(buf, nd.dst)
		buf = binary.AppendUvarint(buf, uint64(nd.pred.n))
		for j := uint32(0); j < nd.pred.n; j++ {
			buf = binary.AppendUvarint(buf, uint64(nd.pred.at(j)))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(h.free)))
	for _, s := range h.free {
		buf = binary.AppendUvarint(buf, uint64(s))
	}
	buf = binary.AppendUvarint(buf, h.nextSeq)
	buf = binary.AppendUvarint(buf, uint64(len(h.log)))
	for _, le := range h.log {
		buf = binary.AppendUvarint(buf, le.seq)
		buf = binary.AppendUvarint(buf, uint64(le.a))
		buf = binary.AppendUvarint(buf, uint64(le.b+1)) // noSlot + 1 == 0
	}
	return buf
}

// Decode reads an AppendBinary record from r and rebuilds the history.
// A record whose slots do not form a consistent arena latches an error
// on r and yields a usable empty history, as does a reader that already
// has one; the caller checks r.Err/Close once at the end.
func Decode(r *codec.Reader) *History {
	h := New()
	h.last = amcast.MsgID(r.Uvarint())
	// Collections grow by append while the reader is healthy, so a corrupt
	// count cannot make Decode allocate more than the record holds.
	for n := r.Count(); len(h.nodes) < n && r.Err() == nil; {
		nd := vertex{flags: r.Byte() & (flagLive | flagOpen | flagDelivered)}
		if nd.flags&flagLive == 0 {
			nd.flags = 0
		} else {
			nd.id = amcast.MsgID(r.Uvarint())
			nd.dst = r.Groups()
			for k := r.Count(); k > 0 && r.Err() == nil; k-- {
				nd.pred.add(uint32(r.Uvarint()))
			}
		}
		h.nodes = append(h.nodes, nd)
	}
	for n := r.Count(); len(h.free) < n && r.Err() == nil; {
		h.free = append(h.free, uint32(r.Uvarint()))
	}
	h.nextSeq = r.Uvarint()
	for n := r.Count(); len(h.log) < n && r.Err() == nil; {
		h.log = append(h.log, logEntry{seq: r.Uvarint(), a: uint32(r.Uvarint()), b: uint32(r.Uvarint()) - 1})
	}
	if r.Err() == nil {
		if err := h.link(); err != nil {
			r.Fail(err)
		}
	}
	if r.Err() != nil {
		return New()
	}
	return h
}

// link derives the index, successor lists and msgsTo counters of a
// freshly decoded arena, rejecting slot references that are out of range
// or point at free slots, a free list that is not exactly the free
// slots, and a log that is not ordered below nextSeq.
func (h *History) link() error {
	live := func(s uint32) bool {
		return uint64(s) < uint64(len(h.nodes)) && h.nodes[s].flags&flagLive != 0
	}
	for i := range h.nodes {
		nd := &h.nodes[i]
		if nd.flags&flagLive == 0 {
			continue
		}
		if _, dup := h.index[nd.id]; dup {
			return fmt.Errorf("history: decode: message %s in two slots", nd.id)
		}
		h.index[nd.id] = uint32(i)
		h.countDst(nd.dst, 1)
		for j := uint32(0); j < nd.pred.n; j++ {
			p := nd.pred.at(j)
			if !live(p) || p == uint32(i) || h.nodes[p].succ.has(uint32(i)) {
				return fmt.Errorf("history: decode: slot %d has a bad predecessor slot %d", i, p)
			}
			h.nodes[p].succ.add(uint32(i))
		}
	}
	if len(h.free) != len(h.nodes)-len(h.index) {
		return fmt.Errorf("history: decode: %d free-list entries for %d free slots", len(h.free), len(h.nodes)-len(h.index))
	}
	for _, s := range h.free {
		if uint64(s) >= uint64(len(h.nodes)) || h.nodes[s].flags != 0 || h.nodes[s].mark != 0 {
			return fmt.Errorf("history: decode: bad free-list slot %d", s)
		}
		h.nodes[s].mark = 1 // seen; cleared below
	}
	for _, s := range h.free {
		h.nodes[s].mark = 0
	}
	seq := uint64(0)
	for _, le := range h.log {
		if le.seq < seq || le.seq >= h.nextSeq || !live(le.a) || (le.b != noSlot && !live(le.b)) {
			return fmt.Errorf("history: decode: bad log entry %+v", le)
		}
		seq = le.seq + 1
	}
	return nil
}
