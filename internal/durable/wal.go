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
// checkpoint record's payload is its own word again, then a delta
// (amcast.DeltaEngine.AppendDelta) from the state at the checkpoint
// before it. A snapshot is the joined payloads of one or more snapshot
// records, every chunk but the last marked as continued, behind the last
// input record of the epoch it seals. A record is valid only if it is
// complete and its checksum matches; the reader stops at the first
// invalid one, which is how a torn tail — the partial write a kill -9
// leaves — is detected. The one exception is a checkpoint that fails its
// checksum while its repeated word matches and the record behind it is
// valid: the damage is in its delta, the input around it is whole, and
// the reader steps over it (recovery then replays what it would have
// covered).

const walHeaderSize = 8

// maxWALRecord bounds a single record; anything larger is corruption
// (it exceeds the largest frame the codec can legally produce by a wide
// margin) and must not drive a multi-gigabyte allocation during replay.
// recordChunk is the largest payload the journal and snapshot writers put
// in one record: a larger instalment or body becomes several.
const (
	maxWALRecord = 1 << 26
	recordChunk  = 1 << 20

	// The kinds, in the word's top two bits.
	kindInput      = 0
	kindCheckpoint = 1 << 30
	kindSnapshot   = 2 << 30 // the last (or only) chunk of a snapshot
	kindSnapMore   = 3 << 30 // a snapshot chunk with more to follow
	kindMask       = 3 << 30
	wordLen        = 1<<30 - 1
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
		switch {
		case snapshot && n < len(payload):
			word |= kindSnapMore
		case snapshot:
			word |= kindSnapshot
		}
		buf = binary.LittleEndian.AppendUint32(buf, word)
		buf = binary.LittleEndian.AppendUint32(buf, recordSum(buf[len(buf)-4:], payload[:n]))
		buf, payload = append(buf, payload[:n]...), payload[n:]
	}
	return buf
}

// walScan is the result of reading one record file: the valid input and
// checkpoint records and the offset goodLen behind the last of them;
// whether what follows is, or began as, a snapshot (sealed: the epoch
// takes no more input), with its chunks in snap when it is whole and
// corrupt telling a damaged one (a failed checksum, a record out of
// place) from one a crash cut short; and otherwise the length tornBytes
// of the discarded tail, a damaged record and whatever follows it.
type walScan struct {
	records   []walRecord
	goodLen   int64
	sealed    bool
	snap      [][]byte
	corrupt   bool
	tornBytes int64
}

// walRecord is one input or checkpoint record: its payload — for a
// checkpoint the delta, nil when it failed its checksum — and the offset
// behind it.
type walRecord struct {
	payload    []byte
	checkpoint bool
	end        int64
}

// readWAL reads a record file: every valid input and checkpoint record,
// then the snapshot behind them if there is one, stopping cleanly at the
// first incomplete or corrupt record. What the damage means is the
// caller's call.
func readWAL(path string) (walScan, error) {
	data, err := os.ReadFile(path)
	return scanRecords(data), err
}

func scanRecords(data []byte) (scan walScan) {
	for off := 0; len(data)-off >= 4; {
		word := binary.LittleEndian.Uint32(data[off:])
		kind := word & kindMask
		isSnap := kind&kindSnapshot != 0
		scan.sealed = scan.sealed || isSnap
		payload, intact := nextRecord(data[off:])
		if payload == nil {
			break
		}
		next := off + walHeaderSize + len(payload)
		repeated := kind == kindCheckpoint && len(payload) >= 4 && binary.LittleEndian.Uint32(payload) == word
		if !intact && repeated && !scan.sealed {
			if p, ok := nextRecord(data[next:]); p != nil && ok {
				off = next
				scan.records, scan.goodLen = append(scan.records, walRecord{checkpoint: true, end: int64(off)}), int64(off)
				continue
			}
		}
		// A record behind a snapshot record is as wrong as a checksum.
		if !intact || scan.sealed && !isSnap {
			scan.corrupt = scan.sealed
			break
		}
		off = next
		switch {
		case kind == kindInput:
			scan.records, scan.goodLen = append(scan.records, walRecord{payload: payload, end: int64(off)}), int64(off)
		case kind == kindCheckpoint:
			rec := walRecord{checkpoint: true, end: int64(off)}
			if repeated {
				rec.payload = payload[4:]
			}
			scan.records, scan.goodLen = append(scan.records, rec), int64(off)
		default:
			if scan.snap = append(scan.snap, payload); kind == kindSnapshot {
				return scan
			}
		}
	}
	scan.snap = nil // chunks without the last one are no snapshot
	if !scan.sealed {
		scan.tornBytes = int64(len(data)) - scan.goodLen
	}
	return scan
}

// nextRecord reads the record data starts with: its payload (nil when the
// record is incomplete or longer than maxWALRecord) and whether its
// checksum matches.
func nextRecord(data []byte) (payload []byte, intact bool) {
	if len(data) < walHeaderSize {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(data) & wordLen)
	if n > maxWALRecord || len(data) < walHeaderSize+n {
		return nil, false
	}
	payload = data[walHeaderSize : walHeaderSize+n]
	return payload, recordSum(data[:4], payload) == binary.LittleEndian.Uint32(data[4:])
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
// copies one. A checkpoint's frame also reserves the repeated word.
func (w *walWriter) frame(kind uint32) []byte {
	n := walHeaderSize
	if kind == kindCheckpoint {
		n += 4
	}
	return append(w.buf[:0], make([]byte, n)...)
}

// commit patches the header of a record of the kind built on frame and
// writes it with one write(2).
func (w *walWriter) commit(rec []byte, kind uint32) error {
	w.buf = rec
	word := uint32(len(rec)-walHeaderSize) | kind
	binary.LittleEndian.PutUint32(rec, word)
	if kind == kindCheckpoint {
		binary.LittleEndian.PutUint32(rec[walHeaderSize:], word)
	}
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
// the input. The first sync of an epoch waits for the seal (SealWaitHist),
// and often for long — 0.7–1.1 ms on average in a durable load run on 2
// vCPU — which is why a rotation is not taken at every checkpoint: with a
// snapshot every 256 inputs, 2 s of warm-up and 8 s of such a run spent
// 2.7 s of engine goroutine time here over 3 820 rotations, and with
// deltas in between 0.6 s over 532.
func (w *walWriter) sync() error {
	if w.sinceSync == 0 {
		return nil
	}
	if w.sealed != nil {
		start := time.Now()
		if err := w.sealed(); err != nil {
			return fmt.Errorf("durable: wal fsync: previous epoch not sealed: %w", err)
		}
		sealWaitHist.Record(uint64(time.Since(start)))
		w.sealed = nil
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
