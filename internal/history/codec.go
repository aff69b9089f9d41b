package history

import (
	"encoding/binary"
	"fmt"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// AppendBinary appends the history's encoding: lastDlvd, the arena slot
// by slot (a free slot is one zero byte; a live one its flags, id,
// destinations and predecessor slots), the free list and the log (each
// entry's sequence number and origin bit as one key). Slots
// and predecessor order are written as they are, so a decoded history
// allocates, walks, prunes and encodes exactly like the original; the
// index, the successor lists (whose order nothing observes), the interned
// destination sets, the msgsTo counters and the derived flags (closed,
// has-destinations) are rebuilt on decode — a decoded history starts
// with no node closed.
func (h *History) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(h.last))
	buf = binary.AppendUvarint(buf, uint64(len(h.nodes)))
	for i := range h.nodes {
		buf = h.appendSlot(buf, i)
	}
	buf = binary.AppendUvarint(buf, uint64(len(h.free)))
	for _, s := range h.free {
		buf = binary.AppendUvarint(buf, uint64(s))
	}
	buf = binary.AppendUvarint(buf, h.nextSeq)
	buf = binary.AppendUvarint(buf, uint64(len(h.log)))
	return h.appendLogEntries(buf, h.log)
}

// appendSlot appends slot i: one zero byte when it is free, else its
// flags, id, destinations and predecessor slots.
func (h *History) appendSlot(buf []byte, i int) []byte {
	f := h.flags[i] & persistedFlags
	buf = append(buf, f)
	if f&flagLive == 0 {
		return buf
	}
	nd, p := &h.nodes[i], &h.preds[i]
	buf = binary.AppendUvarint(buf, uint64(nd.id))
	buf = codec.AppendGroups(buf, nd.dst)
	buf = binary.AppendUvarint(buf, uint64(p.n))
	for j := uint32(0); j < p.n; j++ {
		buf = binary.AppendUvarint(buf, uint64(p.at(j)))
	}
	return buf
}

func (h *History) appendLogEntries(buf []byte, log []logEntry) []byte {
	for _, le := range log {
		buf = binary.AppendUvarint(buf, le.key)
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
		nd, f, p := h.readSlot(r)
		h.nodes = append(h.nodes, nd)
		h.flags = append(h.flags, f)
		h.preds = append(h.preds, p)
	}
	for n := r.Count(); len(h.free) < n && r.Err() == nil; {
		h.free = append(h.free, uint32(r.Uvarint()))
	}
	h.nextSeq = r.Uvarint()
	h.log = readLogEntries(r, r.Count(), nil)
	if h.finish(r) {
		return h
	}
	return New()
}

// readSlot reads an appendSlot record, interning the destinations.
func (h *History) readSlot(r *codec.Reader) (nd vertex, f uint8, p adj) {
	f = r.Byte() & persistedFlags
	if f&flagLive == 0 {
		return nd, 0, p
	}
	nd.id = amcast.MsgID(r.Uvarint())
	nd.dst = h.intern(r.Groups())
	f |= hasDst(nd.dst)
	for k := r.Count(); k > 0 && r.Err() == nil; k-- {
		p.add(uint32(r.Uvarint()))
	}
	return nd, f, p
}

// readLogEntries appends n appendLogEntries entries read from r to log.
func readLogEntries(r *codec.Reader, n int, log []logEntry) []logEntry {
	for n += len(log); len(log) < n && r.Err() == nil; {
		log = append(log, logEntry{key: r.Uvarint(), a: uint32(r.Uvarint()), b: uint32(r.Uvarint()) - 1})
	}
	return log
}

// finish sizes the per-slot walk marks of a history whose arena, free
// list and log were read from r, and links it; it reports whether r is
// still healthy, latching link's error on it otherwise.
func (h *History) finish(r *codec.Reader) bool {
	h.mark = make([]uint32, len(h.nodes))
	if r.Err() == nil {
		if err := h.link(); err != nil {
			r.Fail(err)
		}
	}
	return r.Err() == nil
}

// link derives the index, successor lists and msgsTo counters of a
// freshly decoded arena, rejecting slot references that are out of range
// or point at free slots, a free list that is not exactly the free
// slots, and a log that is not ordered below nextSeq.
func (h *History) link() error {
	live := func(s uint32) bool {
		return uint64(s) < uint64(len(h.nodes)) && h.flags[s]&flagLive != 0
	}
	for i := range h.nodes {
		nd := &h.nodes[i]
		if h.flags[i]&flagLive == 0 {
			continue
		}
		if _, dup := h.slot(nd.id); dup {
			return fmt.Errorf("history: decode: message %s in two slots", nd.id)
		}
		h.index.put(uint64(nd.id), uint32(i))
		h.countDst(nd.dst, 1)
		preds := &h.preds[i]
		for j := uint32(0); j < preds.n; j++ {
			p := preds.at(j)
			if !live(p) || p == uint32(i) || h.nodes[p].succ.has(uint32(i)) {
				return fmt.Errorf("history: decode: slot %d has a bad predecessor slot %d", i, p)
			}
			h.nodes[p].succ.add(uint32(i))
		}
	}
	if len(h.free) != len(h.nodes)-h.Len() {
		return fmt.Errorf("history: decode: %d free-list entries for %d free slots", len(h.free), len(h.nodes)-h.Len())
	}
	for _, s := range h.free {
		if uint64(s) >= uint64(len(h.nodes)) || h.flags[s] != 0 || h.mark[s] != 0 {
			return fmt.Errorf("history: decode: bad free-list slot %d", s)
		}
		h.mark[s] = 1 // seen; cleared below
	}
	for _, s := range h.free {
		h.mark[s] = 0
	}
	seq := uint64(0)
	for _, le := range h.log {
		if le.seq() < seq || le.seq() >= h.nextSeq || !live(le.a) || (le.b != noSlot && !live(le.b)) {
			return fmt.Errorf("history: decode: bad log entry %+v", le)
		}
		seq = le.seq() + 1
	}
	return nil
}
