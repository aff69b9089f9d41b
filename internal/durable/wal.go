package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"time"
)

// Record framing: [u32le word][u32le CRC-32C][payload]. The word is the
// payload length with the record's kind in its two top bits; the checksum
// covers both. An input record's payload is a wire-codec envelope frame
// (single or batch), so the log reuses the codec's canonical encodings
// end to end; journal.log frames snapshot-tail bytes the same way. A
// snapshot is the joined payloads of one or more snapshot records, every
// chunk but the last marked as continued, behind the last input record of
// the epoch it seals. A record is valid only if it is complete and its
// checksum matches; the reader stops at the first invalid one, which is
// how a torn tail — the partial write a kill -9 leaves — is detected.

const walHeaderSize = 8

// maxWALRecord bounds a single record; anything larger is corruption
// (it exceeds the largest frame the codec can legally produce by a wide
// margin) and must not drive a multi-gigabyte allocation during replay.
// recordChunk is the largest payload the journal and snapshot writers put
// in one record: a larger instalment or body becomes several.
const (
	maxWALRecord = 1 << 26
	recordChunk  = 1 << 20

	wordSnapshot = 1 << 31 // a snapshot record, not an input record
	wordMore     = 1 << 30 // the snapshot continues in the next record
	wordLen      = wordMore - 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func recordSum(word, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(word, crcTable), crcTable, payload)
}

// appendRecords frames payload into buf in chunks of at most recordChunk
// bytes: as input-kind records, or as one snapshot.
func appendRecords(buf, payload []byte, snapshot bool) []byte {
	for len(payload) > 0 {
		n := min(len(payload), recordChunk)
		word := uint32(n)
		if snapshot {
			word |= wordSnapshot
		}
		if snapshot && n < len(payload) {
			word |= wordMore
		}
		buf = binary.LittleEndian.AppendUint32(buf, word)
		buf = binary.LittleEndian.AppendUint32(buf, recordSum(buf[len(buf)-4:], payload[:n]))
		buf, payload = append(buf, payload[:n]...), payload[n:]
	}
	return buf
}

// walScan is the result of reading one record file: the payloads of the
// valid input records and the offset goodLen behind the last of them;
// whether what follows is, or began as, a snapshot (sealed: the epoch
// takes no more input), with its chunks in snap when it is whole and
// corrupt telling a damaged one (a failed checksum, a record out of
// place) from one a crash cut short; and otherwise the length tornBytes
// of the discarded tail, a damaged input record and whatever follows it.
type walScan struct {
	records   [][]byte
	goodLen   int64
	sealed    bool
	snap      [][]byte
	corrupt   bool
	tornBytes int64
}

// readWAL reads a record file: every valid input record, then the
// snapshot behind them if there is one, stopping cleanly at the first
// incomplete or corrupt record. What the damage means is the caller's call.
func readWAL(path string) (walScan, error) {
	data, err := os.ReadFile(path)
	return scanRecords(data), err
}

func scanRecords(data []byte) (scan walScan) {
	for off := 0; len(data)-off >= 4; {
		rest := data[off:]
		word := binary.LittleEndian.Uint32(rest)
		isSnap := word&wordSnapshot != 0
		scan.sealed = scan.sealed || isSnap
		n := int(word & wordLen)
		if n > maxWALRecord || len(rest) < walHeaderSize+n {
			break
		}
		payload := rest[walHeaderSize : walHeaderSize+n]
		// An input record behind a snapshot record is as wrong as a checksum.
		if recordSum(rest[:4], payload) != binary.LittleEndian.Uint32(rest[4:]) || scan.sealed && !isSnap {
			scan.corrupt = scan.sealed
			break
		}
		off += walHeaderSize + n
		if !isSnap {
			scan.records, scan.goodLen = append(scan.records, payload), int64(off)
		} else if scan.snap = append(scan.snap, payload); word&wordMore == 0 {
			return scan
		}
	}
	scan.snap = nil // chunks without the last one are no snapshot
	if !scan.sealed {
		scan.tornBytes = int64(len(data)) - scan.goodLen
	}
	return scan
}

// walWriter appends framed records to an open WAL file with batched
// fsync: records are written immediately (so a killed process loses at
// most what the kernel had not flushed), and the file is fsynced every
// fsyncEvery appends (1 = every append, <0 = never).
type walWriter struct {
	f          *os.File
	fsyncEvery int
	sinceSync  int
	buf        []byte
	// sealed, when set, waits for the persist job sealing the previous
	// epoch and returns its failure: this epoch is not fsynced before.
	sealed func() error
}

// openAppendAt opens (or creates) a record file for appending behind
// its first goodLen bytes. Whatever follows them — the torn tail of a
// previous crash — is dropped first: the reader would stop there
// anyway, but new records written after garbage would be unreachable.
func openAppendAt(path string, goodLen int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// frame returns the writer's record buffer, emptied, with the header
// reserved: the caller encodes the payload straight behind it and hands
// the result to commit, so an append neither allocates a frame nor
// copies one.
func (w *walWriter) frame() []byte {
	return append(w.buf[:0], make([]byte, walHeaderSize)...)
}

// commit patches the header of a record built on frame and writes it
// with one write(2).
func (w *walWriter) commit(rec []byte) error {
	w.buf = rec
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-walHeaderSize))
	binary.LittleEndian.PutUint32(rec[4:], recordSum(rec[:4], rec[walHeaderSize:]))
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("durable: wal append: %w", err)
	}
	w.sinceSync++
	if w.fsyncEvery > 0 && w.sinceSync >= w.fsyncEvery {
		return w.sync()
	}
	return nil
}

// sync makes the appended records durable. An epoch is never fsynced
// before its predecessor is sealed: a machine crash could otherwise keep
// this epoch's records and lose the predecessor's last ones, a hole in
// the input. The seal lands about a millisecond after the cadence point,
// normally before the first sync asks.
func (w *walWriter) sync() error {
	if w.sinceSync == 0 {
		return nil
	}
	if w.sealed != nil {
		if err := w.sealed(); err != nil {
			return fmt.Errorf("durable: wal fsync: previous epoch not sealed: %w", err)
		}
	}
	w.sinceSync = 0
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: wal fsync: %w", err)
	}
	fsyncHist.Record(uint64(time.Since(start)))
	return nil
}

func (w *walWriter) close() error {
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
