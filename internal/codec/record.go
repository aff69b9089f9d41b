// Record-level encoding helpers for snapshot serialization: the engine
// packages (internal/core, internal/skeen, internal/hierarchical) and
// the store encode their amcast.BinarySnapshot implementations with the
// same uvarint conventions the wire codec uses, reusing the message
// layout so a snapshot's embedded messages are byte-identical to their
// wire form. A Reader is the decoding cursor; it carries the error so
// callers chain reads and check once.
package codec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"flexcast/amcast"
)

// AppendMessage appends the canonical encoding of m, payload included
// (the message layout of the wire codec's REQUEST/MSG envelopes).
func AppendMessage(buf []byte, m amcast.Message) []byte {
	return appendMessage(buf, m, true)
}

// AppendDelivery appends one delivery: the message (with payload)
// followed by the group, sequence, result and watermark fields.
func AppendDelivery(buf []byte, d amcast.Delivery) []byte {
	buf = appendMessage(buf, d.Msg, true)
	buf = binary.AppendUvarint(buf, uint64(uint32(d.Group)))
	buf = binary.AppendUvarint(buf, d.Seq)
	buf = append(buf, d.Result)
	buf = binary.AppendUvarint(buf, d.Watermark)
	return buf
}

// AppendBool appends a bool as one byte (0 or 1).
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Reader is a decoding cursor over a snapshot record encoded with the
// Append* helpers. All methods are no-ops once an error is latched;
// check Err (or call Close) after the final read.
type Reader struct {
	d decoder
}

// NewReader returns a cursor over buf.
func NewReader(buf []byte) *Reader { return &Reader{d: decoder{buf: buf}} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.d.err }

// Fail latches err unless an earlier error is latched already: a caller
// that decodes a well-formed record into an inconsistent value reports it
// through the same single check.
func (r *Reader) Fail(err error) {
	if r.d.err == nil {
		r.d.err = err
	}
}

// Close verifies the record was consumed exactly (no trailing bytes)
// and returns the first error.
func (r *Reader) Close() error {
	if r.d.err != nil {
		return r.d.err
	}
	if r.d.off != len(r.d.buf) {
		return fmt.Errorf("codec: %d trailing bytes in record", len(r.d.buf)-r.d.off)
	}
	return nil
}

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.d.buf) - r.d.off }

// Uvarint decodes one unsigned varint.
func (r *Reader) Uvarint() uint64 { return r.d.uvarint() }

// Byte decodes one raw byte.
func (r *Reader) Byte() byte { return r.d.byte() }

// Bool decodes one AppendBool byte.
func (r *Reader) Bool() bool { return r.d.byte() != 0 }

// Count decodes a collection length, bounded against corrupt records.
func (r *Reader) Count() int { return r.d.count() }

// Bounded decodes the length of a collection whose entries take at least
// minWidth bytes each. It is bounded by the bytes left, not by Count's
// limit: it is for a collection whose length follows the run (a delivery
// log, a delivered set), which a hot group passes within about a minute
// of a durable benchmark run.
func (r *Reader) Bounded(minWidth int) int {
	n := r.d.uvarint()
	if left := uint64(r.Len()); r.d.err == nil && n > left/uint64(minWidth) {
		r.Fail(fmt.Errorf("codec: %d entries of at least %d bytes exceed the %d bytes left at offset %d", n, minWidth, left, r.d.off))
		return 0
	}
	return int(n)
}

// Entries decodes a Bounded count of width-byte entries and returns their
// bytes.
func (r *Reader) Entries(width int) []byte { return r.d.bytes(r.Bounded(width) * width) }

// BytesN decodes n raw bytes (a sub-record whose length came first).
func (r *Reader) BytesN(n int) []byte { return r.d.bytes(n) }

// Message decodes one AppendMessage record. An empty payload decodes as
// nil, as a message built without one holds it: a state restored from its
// record holds the messages the engine held, to the field.
func (r *Reader) Message() amcast.Message {
	m := r.d.message(true)
	if len(m.Payload) == 0 {
		m.Payload = nil
	}
	return m
}

// Delivery decodes one AppendDelivery record.
func (r *Reader) Delivery() amcast.Delivery {
	var d amcast.Delivery
	d.Msg = r.Message()
	d.Group = amcast.GroupID(r.d.uvarint32())
	d.Seq = r.d.uvarint()
	d.Result = r.d.byte()
	d.Watermark = r.d.uvarint()
	return d
}

// Groups decodes a count-prefixed group list.
func (r *Reader) Groups() []amcast.GroupID { return r.d.groups(r.d.countOf(minGroup)) }

// AppendGroups appends a count-prefixed group list.
func AppendGroups(buf []byte, gs []amcast.GroupID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(gs)))
	for _, g := range gs {
		buf = binary.AppendUvarint(buf, uint64(uint32(g)))
	}
	return buf
}

// SortedKeys returns m's keys in ascending order: a record writes a map in
// key order, so that the same state writes the same bytes.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}
