// Package codec provides the deterministic binary wire encoding of
// protocol envelopes. It serves two purposes: framing for the TCP runtime
// (internal/transport) and exact message-size accounting for the
// communication-cost experiments (paper Figure 8), which is why Size
// computes the encoded length without allocating.
//
// Layout (all integers are unsigned varints unless noted):
//
//	kind(1 byte) | from | msg | [payload] | [hist] | [certEpoch] | [notifList] | [ackCovers] | [ts tsFrom] | [result] | [watermark] | [value]
//	msg   = id | sender | flags(1 byte) | [session] | nDst | dst...
//	hist  = nNodes | (id nDst dst...)... | nEdges | (from to)...
//	notifList = nPairs | (notifier notified epoch)...
//	ackCovers = nCovers | (notifier epoch)...
//
// certEpoch appears on NOTIF envelopes only and must be ≥ 1 — it is the
// certification epoch that makes a re-NOTIF carrying a fresh edge
// distinguishable from a duplicate (DESIGN.md §4 deviation 8). Pair and
// cover epochs must also be ≥ 1, pairs must be strictly ascending by
// (notifier, notified) and covers strictly ascending by notifier — the
// normalized order the engine always sends — so exactly one byte string
// encodes any accepted list. result and watermark appear on REPLY
// envelopes; value (zigzag varint) appears on REPLY envelopes whose
// message carries FlagRead — the read-result leg of the KindRead path.
// Section presence is always a function of bytes decoded earlier in the
// frame, keeping the encoding canonical.
//
// session appears in the message section iff the flags byte (decoded
// just before it) carries FlagSession, and must be ≥ 1 — the session id
// a multiplexed client connection stamps on its messages so replies
// demultiplex to the right logical session. A set flag with session 0
// is rejected as non-canonical; an absent flag with a session varint
// present decodes the varint as the destination count and fails (or
// leaves trailing bytes), so exactly one byte string encodes any
// accepted message.
//
// Optional sections are present only for the envelope kinds that use them,
// keeping auxiliary messages (ACK/NOTIF/TS/REPLY) small, as in the paper's
// prototypes.
//
// The decoder allocates nothing a frame cannot account for: every
// collection count is checked against the bytes left in the frame at the
// smallest encoding of one element — a group 1 byte, a history node or
// edge 2, an ack cover 2, a notification pair 3, a batch entry 2 — before
// anything is allocated for it, so a frame of n bytes costs O(n) memory
// however large the counts it claims. A history diff decodes into a
// constant number of allocations whatever its size: the delta, its node
// and edge arrays, and one slab holding every node's destination set.
package codec

import (
	"encoding/binary"
	"fmt"

	"flexcast/amcast"
)

func hasPayload(k amcast.Kind) bool { return k.IsPayload() }

func hasHist(k amcast.Kind) bool {
	return k == amcast.KindMsg || k == amcast.KindAck || k == amcast.KindNotif
}

func hasNotifList(k amcast.Kind) bool {
	return k == amcast.KindMsg || k == amcast.KindAck
}

func hasAckCovers(k amcast.Kind) bool {
	return k == amcast.KindAck
}

func hasCertEpoch(k amcast.Kind) bool {
	return k == amcast.KindNotif
}

func hasTS(k amcast.Kind) bool {
	return k == amcast.KindTS || k == amcast.KindReply || k == amcast.KindRead
}

func hasResult(k amcast.Kind) bool {
	return k == amcast.KindReply
}

func hasWatermark(k amcast.Kind) bool {
	return k == amcast.KindReply
}

// hasValue reports whether the envelope carries a read result value:
// only replies answering a KindRead transaction do. Presence is a
// function of bytes decoded earlier in the frame (kind, then the
// message flags), so the encoding stays canonical.
func hasValue(k amcast.Kind, flags amcast.MsgFlags) bool {
	return k == amcast.KindReply && flags&amcast.FlagRead != 0
}

// zigzag maps a signed value to an unsigned varint-friendly one
// (identical to protobuf's sint64 mapping).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Marshal encodes an envelope.
func Marshal(env amcast.Envelope) []byte {
	return Append(make([]byte, 0, Size(env)), env)
}

func appendMessage(buf []byte, m amcast.Message, payload bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.ID))
	buf = binary.AppendUvarint(buf, uint64(uint32(m.Sender)))
	buf = append(buf, byte(m.Flags))
	if m.Flags&amcast.FlagSession != 0 {
		buf = binary.AppendUvarint(buf, m.Session)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Dst)))
	for _, g := range m.Dst {
		buf = binary.AppendUvarint(buf, uint64(uint32(g)))
	}
	if payload {
		buf = binary.AppendUvarint(buf, uint64(len(m.Payload)))
		buf = append(buf, m.Payload...)
	}
	return buf
}

func appendHist(buf []byte, d *amcast.HistDelta) []byte {
	if d == nil {
		buf = binary.AppendUvarint(buf, 0)
		buf = binary.AppendUvarint(buf, 0)
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Nodes)))
	for _, n := range d.Nodes {
		buf = binary.AppendUvarint(buf, uint64(n.ID))
		buf = binary.AppendUvarint(buf, uint64(len(n.Dst)))
		for _, g := range n.Dst {
			buf = binary.AppendUvarint(buf, uint64(uint32(g)))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.Edges)))
	for _, e := range d.Edges {
		buf = binary.AppendUvarint(buf, uint64(e.From))
		buf = binary.AppendUvarint(buf, uint64(e.To))
	}
	return buf
}

// Size returns len(Marshal(env)) without allocating. The message-cost
// experiments call it on every transmission.
func Size(env amcast.Envelope) int {
	n := 1 + uvarintLen(uint64(uint32(env.From)))
	n += messageSize(env.Msg, hasPayload(env.Kind))
	if hasHist(env.Kind) {
		n += histSize(env.Hist)
	}
	if hasCertEpoch(env.Kind) {
		n += uvarintLen(env.CertEpoch)
	}
	if hasNotifList(env.Kind) {
		n += uvarintLen(uint64(len(env.NotifList)))
		for _, p := range env.NotifList {
			n += uvarintLen(uint64(uint32(p.Notifier))) + uvarintLen(uint64(uint32(p.Notified))) + uvarintLen(p.Epoch)
		}
	}
	if hasAckCovers(env.Kind) {
		n += uvarintLen(uint64(len(env.AckCovers)))
		for _, c := range env.AckCovers {
			n += uvarintLen(uint64(uint32(c.Notifier))) + uvarintLen(c.Epoch)
		}
	}
	if hasTS(env.Kind) {
		n += uvarintLen(env.TS) + uvarintLen(uint64(uint32(env.TSFrom)))
	}
	if hasResult(env.Kind) {
		n++
	}
	if hasWatermark(env.Kind) {
		n += uvarintLen(env.Watermark)
	}
	if hasValue(env.Kind, env.Msg.Flags) {
		n += uvarintLen(zigzag(env.Value))
	}
	return n
}

func messageSize(m amcast.Message, payload bool) int {
	n := uvarintLen(uint64(m.ID)) + uvarintLen(uint64(uint32(m.Sender))) + 1
	if m.Flags&amcast.FlagSession != 0 {
		n += uvarintLen(m.Session)
	}
	n += uvarintLen(uint64(len(m.Dst)))
	for _, g := range m.Dst {
		n += uvarintLen(uint64(uint32(g)))
	}
	if payload {
		n += uvarintLen(uint64(len(m.Payload))) + len(m.Payload)
	}
	return n
}

func histSize(d *amcast.HistDelta) int {
	if d == nil {
		return 2 // two zero counts
	}
	n := uvarintLen(uint64(len(d.Nodes)))
	for _, hn := range d.Nodes {
		n += uvarintLen(uint64(hn.ID))
		n += uvarintLen(uint64(len(hn.Dst)))
		for _, g := range hn.Dst {
			n += uvarintLen(uint64(uint32(g)))
		}
	}
	n += uvarintLen(uint64(len(d.Edges)))
	for _, e := range d.Edges {
		n += uvarintLen(uint64(e.From)) + uvarintLen(uint64(e.To))
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// decoder is a cursor over an encoded envelope.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		v := d.buf[d.off]
		d.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("codec: truncated varint at offset %d", d.off)
		return 0
	}
	if d.buf[d.off+n-1] == 0 {
		// Reject non-minimal encodings — a varint of two or more bytes
		// whose last byte adds nothing: the wire format is canonical
		// (exactly one byte string per envelope), which the round-trip
		// fuzzer relies on and which keeps Size exact.
		d.err = fmt.Errorf("codec: non-minimal varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// uvarint32 decodes a varint that must fit 32 bits (group and node
// ids). Oversized values are rejected rather than truncated, so every
// accepted frame re-encodes to exactly the same bytes (canonical
// encoding — the round-trip property the fuzzer checks).
func (d *decoder) uvarint32() uint32 {
	v := d.uvarint()
	if d.err == nil && v > 0xFFFFFFFF {
		d.err = fmt.Errorf("codec: 32-bit field overflow (%d)", v)
		return 0
	}
	return uint32(v)
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = fmt.Errorf("codec: truncated byte at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = fmt.Errorf("codec: truncated %d bytes at offset %d", n, d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// maxCount bounds decoded collection lengths to guard against corrupt or
// hostile frames.
const maxCount = 1 << 22

// Smallest encodings of one collection element, in bytes: what a count
// is checked against before anything is allocated for it.
const (
	minGroup    = 1 // varint
	minHistNode = 2 // id, destination count
	minHistEdge = 2 // from, to
	minPair     = 3 // notifier, notified, epoch
	minCover    = 2 // notifier, epoch
	minEntry    = 2 // length, envelope kind
)

func (d *decoder) count() int {
	v := d.uvarint()
	if v > maxCount {
		d.err = fmt.Errorf("codec: count %d exceeds limit", v)
		return 0
	}
	return int(v)
}

// countOf decodes the length of a collection whose elements take at
// least size bytes each, rejecting one the rest of the buffer cannot hold.
func (d *decoder) countOf(size int) int {
	n := d.count() // ≤ maxCount, so n*size cannot overflow
	if left := len(d.buf) - d.off; d.err == nil && n*size > left {
		d.err = fmt.Errorf("codec: count %d exceeds the %d bytes left at offset %d", n, left, d.off)
		return 0
	}
	return n
}

func (d *decoder) groups(n int) []amcast.GroupID {
	if n == 0 {
		return nil
	}
	return d.groupsInto(make([]amcast.GroupID, n))
}

func (d *decoder) groupsInto(gs []amcast.GroupID) []amcast.GroupID {
	for i := range gs {
		gs[i] = amcast.GroupID(d.uvarint32())
	}
	return gs
}

// pairs decodes a notification-pair list, enforcing the canonical form
// the engine always sends: strictly ascending by (notifier, notified)
// — so a duplicated pair can never smuggle in a second epoch — and
// every certification epoch ≥ 1.
func (d *decoder) pairs(n int) []amcast.NotifPair {
	if n == 0 {
		return nil
	}
	ps := make([]amcast.NotifPair, n)
	for i := range ps {
		ps[i].Notifier = amcast.GroupID(d.uvarint32())
		ps[i].Notified = amcast.GroupID(d.uvarint32())
		ps[i].Epoch = d.uvarint()
		if d.err != nil {
			return ps
		}
		if ps[i].Epoch == 0 {
			d.err = fmt.Errorf("codec: notif pair %d has epoch 0", i)
			return ps
		}
		if i > 0 && !pairLess(ps[i-1], ps[i]) {
			d.err = fmt.Errorf("codec: notif pairs not strictly ordered at %d", i)
			return ps
		}
	}
	return ps
}

func pairLess(a, b amcast.NotifPair) bool {
	if a.Notifier != b.Notifier {
		return a.Notifier < b.Notifier
	}
	return a.Notified < b.Notified
}

// covers decodes a flush ack's cover list, enforcing strictly
// ascending notifiers and epochs ≥ 1 (canonical form).
func (d *decoder) covers(n int) []amcast.AckCover {
	if n == 0 {
		return nil
	}
	cs := make([]amcast.AckCover, n)
	for i := range cs {
		cs[i].Notifier = amcast.GroupID(d.uvarint32())
		cs[i].Epoch = d.uvarint()
		if d.err != nil {
			return cs
		}
		if cs[i].Epoch == 0 {
			d.err = fmt.Errorf("codec: ack cover %d has epoch 0", i)
			return cs
		}
		if i > 0 && cs[i-1].Notifier >= cs[i].Notifier {
			d.err = fmt.Errorf("codec: ack covers not strictly ordered at %d", i)
			return cs
		}
	}
	return cs
}

// Unmarshal decodes an envelope, validating structure and rejecting
// trailing garbage.
func Unmarshal(buf []byte) (amcast.Envelope, error) {
	d := &decoder{buf: buf}
	var env amcast.Envelope
	env.Kind = amcast.Kind(d.byte())
	if d.err == nil {
		switch env.Kind {
		case amcast.KindRequest, amcast.KindMsg, amcast.KindAck, amcast.KindNotif,
			amcast.KindTS, amcast.KindFwd, amcast.KindReply, amcast.KindRead:
		default:
			return env, fmt.Errorf("codec: unknown envelope kind %d", env.Kind)
		}
	}
	env.From = amcast.NodeID(d.uvarint32())
	env.Msg = d.message(hasPayload(env.Kind))
	if hasHist(env.Kind) {
		env.Hist = d.hist()
	}
	if hasCertEpoch(env.Kind) {
		env.CertEpoch = d.uvarint()
		if d.err == nil && env.CertEpoch == 0 {
			return env, fmt.Errorf("codec: NOTIF certification epoch 0")
		}
	}
	if hasNotifList(env.Kind) {
		env.NotifList = d.pairs(d.countOf(minPair))
	}
	if hasAckCovers(env.Kind) {
		env.AckCovers = d.covers(d.countOf(minCover))
	}
	if hasTS(env.Kind) {
		env.TS = d.uvarint()
		env.TSFrom = amcast.GroupID(d.uvarint32())
	}
	if hasResult(env.Kind) {
		env.Result = d.byte()
	}
	if hasWatermark(env.Kind) {
		env.Watermark = d.uvarint()
	}
	if hasValue(env.Kind, env.Msg.Flags) {
		env.Value = unzigzag(d.uvarint())
	}
	if d.err != nil {
		return env, d.err
	}
	if d.off != len(buf) {
		return env, fmt.Errorf("codec: %d trailing bytes", len(buf)-d.off)
	}
	return env, nil
}

// histGroups returns the total destination count of the n history nodes
// ahead of the cursor, which it leaves where it is: the size of the slab
// their sets decode into. It only finds varint boundaries; the decoding
// pass validates. Where the bytes run out or a count exceeds what is
// left, it stops, and the decoding pass fails at or before that point.
func (d *decoder) histGroups(n int) int {
	b, total := d.buf[d.off:], 0
	for ; n > 0; n-- {
		b = skipUvarint(b) // id
		k, w := binary.Uvarint(b)
		if w <= 0 || k > uint64(len(b)-w) {
			break
		}
		b = b[w:]
		total += int(k)
		for ; k > 0; k-- {
			b = skipUvarint(b)
		}
	}
	return total
}

// skipUvarint returns b after its first varint (empty if b ends first).
func skipUvarint(b []byte) []byte {
	for i, c := range b {
		if c < 0x80 {
			return b[i+1:]
		}
	}
	return nil
}

func (d *decoder) message(payload bool) amcast.Message {
	var m amcast.Message
	m.ID = amcast.MsgID(d.uvarint())
	m.Sender = amcast.NodeID(d.uvarint32())
	m.Flags = amcast.MsgFlags(d.byte())
	if m.Flags&amcast.FlagSession != 0 {
		m.Session = d.uvarint()
		if d.err == nil && m.Session == 0 {
			d.err = fmt.Errorf("codec: FlagSession set with session id 0")
			return m
		}
	}
	m.Dst = d.groups(d.countOf(minGroup))
	if payload {
		m.Payload = d.bytes(d.count())
	}
	return m
}

func (d *decoder) hist() *amcast.HistDelta {
	nNodes := d.countOf(minHistNode)
	if d.err != nil {
		return nil
	}
	var h *amcast.HistDelta
	if nNodes > 0 {
		h = &amcast.HistDelta{Nodes: make([]amcast.HistNode, nNodes)}
		var slab []amcast.GroupID
		if n := d.histGroups(nNodes); n > 0 {
			slab = make([]amcast.GroupID, n)
		}
		for i := range h.Nodes {
			h.Nodes[i].ID = amcast.MsgID(d.uvarint())
			n := d.count() // bounded by the slab, which the frame bounds
			if n > len(slab) && d.err == nil {
				d.err = fmt.Errorf("codec: history node %d has more destinations than its diff", i)
			}
			if n == 0 || d.err != nil {
				continue
			}
			h.Nodes[i].Dst = d.groupsInto(slab[:n:n])
			slab = slab[n:]
		}
	}
	nEdges := d.countOf(minHistEdge)
	if d.err != nil {
		return h
	}
	if nEdges > 0 {
		if h == nil {
			h = &amcast.HistDelta{}
		}
		h.Edges = make([]amcast.HistEdge, nEdges)
		for i := range h.Edges {
			h.Edges[i].From = amcast.MsgID(d.uvarint())
			h.Edges[i].To = amcast.MsgID(d.uvarint())
		}
	}
	return h
}
