package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// SeqFile persists a monotonic sequence reservation for a client.
// Message ids must be unique across client incarnations: a restarted
// cluster that restarts its client counter at zero would reissue ids
// its recovered engines already delivered, and the duplicates would be
// silently deduplicated instead of ordered. SeqFile prevents that by
// reserving sequence numbers in blocks — the file always holds an upper
// bound on every sequence ever handed out, so a crash (even a torn
// write, thanks to the write-temp-then-rename protocol) can only waste
// the unissued remainder of a block, never reuse a number.
type SeqFile struct {
	path  string
	chunk uint64

	mu    sync.Mutex
	next  uint64 // next sequence to hand out
	limit uint64 // reservation persisted on disk; next < limit always
}

// seqFileSize is u64le reservation + u32le CRC-32C.
const seqFileSize = 12

// OpenSeqFile opens (or creates) the reservation file at path. chunk is
// the reservation block size (<= 0 takes 4096). The first sequence a
// fresh file hands out is 1.
func OpenSeqFile(path string, chunk uint64) (*SeqFile, error) {
	if chunk <= 0 {
		chunk = 4096
	}
	s := &SeqFile{path: path, chunk: chunk}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// Fresh file: reserve the first block below.
	case err != nil:
		return nil, err
	case len(data) != seqFileSize:
		return nil, fmt.Errorf("durable: seq file %s: %d bytes, want %d", path, len(data), seqFileSize)
	default:
		reserved := binary.LittleEndian.Uint64(data[0:8])
		if got, want := binary.LittleEndian.Uint32(data[8:12]), crc32.Checksum(data[0:8], crcTable); got != want {
			return nil, fmt.Errorf("durable: seq file %s: checksum mismatch", path)
		}
		s.next = reserved
	}
	if err := s.reserve(s.next + chunk); err != nil {
		return nil, err
	}
	return s, nil
}

// Next returns the next sequence number, extending the on-disk
// reservation before crossing into an unreserved block.
func (s *SeqFile) Next() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next+1 >= s.limit {
		if err := s.reserve(s.limit + s.chunk); err != nil {
			return 0, err
		}
	}
	s.next++
	return s.next, nil
}

// reserve durably records that every sequence below bound may have been
// issued. Write-temp-fsync-rename keeps the update atomic: a crash
// leaves either the old bound or the new one, never a torn value.
func (s *SeqFile) reserve(bound uint64) error {
	var buf [seqFileSize]byte
	binary.LittleEndian.PutUint64(buf[0:8], bound)
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(buf[0:8], crcTable))
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	if err := syncDir(filepath.Dir(s.path)); err != nil {
		return err
	}
	s.limit = bound
	return nil
}

// syncDir fsyncs a directory so a completed rename inside it survives a
// machine crash, not just a process crash. Until it succeeds the rename
// is not durable, and nothing it supersedes may be deleted.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
