package gtpcc

import (
	"encoding/binary"
	"fmt"

	"flexcast/amcast"
)

// Transaction payload encoding. Execute-mode deployments (internal/store)
// carry the full transaction detail in the multicast payload so every
// destination warehouse decodes the same transaction and executes its
// shard-local portion deterministically.
//
// Layout (all integers unsigned varints unless noted):
//
//	type(1 byte) | home | per-type fields | zero padding
//	new-order:   customer | rollback(1 byte) | nLines | (item supply qty)...
//	payment:     customer | custWarehouse | amount
//	order-status: customer
//	delivery:    (no fields)
//	stock-level: threshold
//
// The encoding is padded with zero bytes up to Tx.PayloadSize so execute-
// mode runs keep the wire sizes of the paper's gTPC-C workload.

// EncodeTx serializes a transaction into a multicast payload.
func EncodeTx(tx Tx) []byte {
	buf := make([]byte, 0, tx.PayloadSize)
	buf = append(buf, byte(tx.Type))
	buf = binary.AppendUvarint(buf, uint64(uint32(tx.Home)))
	switch tx.Type {
	case NewOrder:
		buf = binary.AppendUvarint(buf, uint64(uint32(tx.Customer)))
		if tx.Rollback {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(tx.Lines)))
		for _, l := range tx.Lines {
			buf = binary.AppendUvarint(buf, uint64(uint32(l.Item)))
			buf = binary.AppendUvarint(buf, uint64(uint32(l.Supply)))
			buf = binary.AppendUvarint(buf, uint64(uint32(l.Qty)))
		}
	case Payment:
		buf = binary.AppendUvarint(buf, uint64(uint32(tx.Customer)))
		buf = binary.AppendUvarint(buf, uint64(uint32(tx.CustWarehouse)))
		buf = binary.AppendUvarint(buf, uint64(tx.Amount))
	case OrderStatus:
		buf = binary.AppendUvarint(buf, uint64(uint32(tx.Customer)))
	case Delivery:
	case StockLevel:
		buf = binary.AppendUvarint(buf, uint64(uint32(tx.Threshold)))
	}
	if len(buf) < tx.PayloadSize {
		// The fields fit in the capacity make zeroed: the padding is
		// already there.
		buf = buf[:tx.PayloadSize]
	}
	return buf
}

// DecodeTx parses a transaction payload produced by EncodeTx. Trailing
// padding must be zero. The decoded Tx's PayloadSize is the payload's
// length; its Dst is left nil — the executing shard does not need it, and
// Involved computes it from the transaction detail.
func DecodeTx(buf []byte) (Tx, error) {
	var tx Tx
	if len(buf) == 0 {
		return tx, fmt.Errorf("gtpcc: empty transaction payload")
	}
	tx.Type = TxType(buf[0])
	d := txDecoder{buf: buf, off: 1}
	tx.Home = amcast.GroupID(d.uvarint32())
	switch tx.Type {
	case NewOrder:
		tx.Customer = int32(d.uvarint32())
		tx.Rollback = d.byte() != 0
		n := int(d.uvarint32())
		if n > 0 && d.err == nil {
			if n > len(buf) { // each line is at least 3 bytes
				return tx, fmt.Errorf("gtpcc: order-line count %d exceeds payload", n)
			}
			tx.Lines = make([]OrderLine, n)
			for i := range tx.Lines {
				tx.Lines[i].Item = int32(d.uvarint32())
				tx.Lines[i].Supply = amcast.GroupID(d.uvarint32())
				tx.Lines[i].Qty = int32(d.uvarint32())
			}
		}
		tx.Items = len(tx.Lines)
	case Payment:
		tx.Customer = int32(d.uvarint32())
		tx.CustWarehouse = amcast.GroupID(d.uvarint32())
		tx.Amount = int64(d.uvarint())
	case OrderStatus:
		tx.Customer = int32(d.uvarint32())
	case Delivery:
	case StockLevel:
		tx.Threshold = int32(d.uvarint32())
	default:
		return tx, fmt.Errorf("gtpcc: unknown transaction type %d", uint8(tx.Type))
	}
	if d.err != nil {
		return tx, d.err
	}
	// The padding is tested a word at a time; the word holding a
	// non-zero byte, and the tail, byte by byte.
	pad := buf[d.off:]
	for len(pad) >= 8 && binary.LittleEndian.Uint64(pad) == 0 {
		pad = pad[8:]
	}
	for i, b := range pad {
		if b != 0 {
			return tx, fmt.Errorf("gtpcc: non-zero padding at offset %d", len(buf)-len(pad)+i)
		}
	}
	tx.PayloadSize = len(buf)
	return tx, nil
}

// Involved returns the warehouses the transaction touches (sorted,
// duplicate-free): the destination set of its multicast. It allocates
// the set once.
func (tx Tx) Involved() []amcast.GroupID {
	n := 1
	switch tx.Type {
	case NewOrder:
		n += len(tx.Lines)
	case Payment:
		n++
	}
	dst := append(make([]amcast.GroupID, 0, n), tx.Home)
	switch tx.Type {
	case NewOrder:
		for _, l := range tx.Lines {
			dst = append(dst, l.Supply)
		}
	case Payment:
		if tx.CustWarehouse != amcast.NoGroup {
			dst = append(dst, tx.CustWarehouse)
		}
	}
	return amcast.NormalizeDst(dst)
}

// txDecoder is a cursor over an encoded transaction payload.
type txDecoder struct {
	buf []byte
	off int
	err error
}

func (d *txDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		// A 1-byte varint: most fields of a gTPC-C transaction.
		v := d.buf[d.off]
		d.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("gtpcc: truncated transaction payload at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *txDecoder) uvarint32() uint32 {
	v := d.uvarint()
	if d.err == nil && v > 0xFFFFFFFF {
		d.err = fmt.Errorf("gtpcc: 32-bit field overflow (%d)", v)
		return 0
	}
	return uint32(v)
}

func (d *txDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = fmt.Errorf("gtpcc: truncated transaction payload at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}
