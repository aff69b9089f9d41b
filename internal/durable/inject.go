package durable

import (
	"fmt"
	"os"
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
// half — header plus a partial payload — turning it into a torn tail, as
// if the crash had struck mid-append of that record (so its input is lost
// and recovery must stop cleanly at the record before it). Returns false
// when the newest WAL holds no complete record to truncate. Like
// TearTail, it is a fault-injection helper for crash tests.
func TruncateLastRecord(dir string) (bool, error) {
	wals, err := scanEpochs(dir)
	if err != nil || len(wals) == 0 {
		return false, err
	}
	path := walPath(dir, wals[len(wals)-1])
	scan, err := readWAL(path)
	if err != nil || len(scan.records) == 0 {
		return false, err
	}
	last := int64(len(scan.records[len(scan.records)-1]))
	return true, os.Truncate(path, scan.goodLen-last+last/2)
}
