package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// TearTail appends the prefix of a valid record — cut mid-frame — to the
// newest WAL under dir, reproducing on demand the torn tail a process
// killed mid-append leaves behind. The fragment carries the full
// record's length and checksum header, so only the framing discipline
// (incomplete body, checksum over missing bytes) can reject it — the
// hardest torn shape to detect. Returns the number of garbage bytes
// appended. It is a fault-injection helper for crash tests; the engine
// itself never calls it.
func TearTail(dir string, payload []byte) (int64, error) {
	wals, err := scanEpochs(dir)
	if err != nil {
		return 0, err
	}
	if len(wals) == 0 {
		return 0, fmt.Errorf("durable: no WAL under %s to tear", dir)
	}
	if len(payload) == 0 {
		payload = []byte("torn-tail-fragment-never-recovered")
	}
	cut := walHeaderSize + len(payload)/2
	f, err := os.OpenFile(walPath(dir, wals[len(wals)-1]), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(appendRecords(nil, payload, false)[:cut])
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return int64(cut), err
}

// TruncateLastRecord cuts the newest WAL's final complete input record in
// half — header plus a partial payload — turning it and whatever follows
// it (a checkpoint) into a torn tail, as if the crash had struck
// mid-append of that record (so its input is lost and recovery must stop
// cleanly at the record before it). Returns false when the newest WAL
// holds no complete input record to truncate. Like TearTail, it is a
// fault-injection helper for crash tests.
func TruncateLastRecord(dir string) (bool, error) {
	wals, err := scanEpochs(dir)
	if err != nil || len(wals) == 0 {
		return false, err
	}
	path := walPath(dir, wals[len(wals)-1])
	scan, err := readWAL(path)
	if err != nil {
		return false, err
	}
	for i := len(scan.records) - 1; i >= 0; i-- {
		if rec := scan.records[i]; !rec.checkpoint {
			n := int64(len(rec.payload))
			return true, os.Truncate(path, rec.end-n+n/2)
		}
	}
	return false, nil
}

// CopyImage copies the regular files of a durable directory into dst,
// creating it: the crash image a crash test mutates, leaving the
// original for the next variant. File to file, so that the kernel does
// the copying: a journal is tens of megabytes after a few seconds.
func CopyImage(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
