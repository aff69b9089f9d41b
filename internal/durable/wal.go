package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// WAL record framing: [u32le payload length][u32le CRC-32C][payload].
// The payload is a wire-codec envelope frame (single or batch), so the
// log reuses the codec's canonical encodings end to end. A record is
// valid only if it is complete and its checksum matches; the reader
// stops at the first invalid record, which is how a torn tail — the
// partial write a kill -9 leaves behind — is detected and discarded.
// journal.log uses the same framing around snapshot-tail bytes.

const walHeaderSize = 8

// maxWALRecord bounds a single record; anything larger is corruption
// (it exceeds the largest frame the codec can legally produce by a wide
// margin) and must not drive a multi-gigabyte allocation during replay.
const maxWALRecord = 1 << 26

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendWALRecord frames payload into buf.
func appendWALRecord(buf, payload []byte) []byte {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// walScan is the result of reading one WAL file.
type walScan struct {
	// records holds the payloads of every valid record, in order.
	records [][]byte
	// goodLen is the byte offset of the end of the last valid record;
	// everything past it is a torn tail (or trailing corruption).
	goodLen int64
	// tornBytes is the length of the discarded tail (0 when clean).
	tornBytes int64
}

// readWAL reads every valid record of a WAL file, stopping cleanly at
// the first incomplete or corrupt record. Only I/O errors are returned;
// a torn tail is a normal crash artifact, reported via the scan.
func readWAL(path string) (walScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return walScan{}, err
	}
	var scan walScan
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < walHeaderSize {
			break
		}
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxWALRecord || int64(len(rest)) < walHeaderSize+n {
			break
		}
		payload := rest[walHeaderSize : walHeaderSize+n]
		if crc32.Checksum(payload, crcTable) != sum {
			break
		}
		scan.records = append(scan.records, payload)
		off += walHeaderSize + n
	}
	scan.goodLen = off
	scan.tornBytes = int64(len(data)) - off
	return scan, nil
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
}

// openAppendAt opens (or creates) a record file for appending behind
// its first goodLen bytes. Whatever follows them — the torn tail of a
// previous crash — is dropped first: the reader would stop there
// anyway, but new records written after garbage would be unreachable.
func openAppendAt(path string, goodLen int64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(goodLen, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func openWALWriter(path string, fsyncEvery int, goodLen int64) (*walWriter, error) {
	f, err := openAppendAt(path, goodLen)
	if err != nil {
		return nil, err
	}
	return &walWriter{f: f, fsyncEvery: fsyncEvery}, nil
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
	payload := rec[walHeaderSize:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("durable: wal append: %w", err)
	}
	w.sinceSync++
	if w.fsyncEvery > 0 && w.sinceSync >= w.fsyncEvery {
		return w.sync()
	}
	return nil
}

func (w *walWriter) sync() error {
	if w.sinceSync == 0 {
		return nil
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
