package durable

import (
	"encoding/binary"
	"errors"
	"os"
	"slices"
)

// DirInfo is what Inspect found under one engine's directory: the WAL
// epochs present, ascending, and the newest whole snapshot — the first
// epoch behind it (RecoveryStats.SnapshotEpoch; 0 = there is none), the
// number of journal bytes it names, and its body: the full body as the
// snapshot checkpoint wrote it, whatever checkpoint deltas follow it.
type DirInfo struct {
	Epochs        []uint64
	SnapshotEpoch uint64
	SnapshotTail  int
	SnapshotBody  []byte
}

// Inspect reads dir the way recovery would, touching nothing: tests and
// samplers ask it where the newest snapshot is and how large, instead of
// knowing the file layout. It may run beside a live engine, whose persist
// job's half-written snapshot record reads as not there yet.
func Inspect(dir string) (info DirInfo, err error) {
	if info.Epochs, err = scanEpochs(dir); err != nil {
		return info, err
	}
	for i := len(info.Epochs) - 1; i >= 0 && info.SnapshotEpoch == 0; i-- {
		scan, err := readWAL(walPath(dir, info.Epochs[i]))
		if err != nil && !errors.Is(err, os.ErrNotExist) { // not one removed since the listing
			return info, err
		}
		if scan.snap != nil && len(scan.snap[0]) >= snapJSize {
			info.SnapshotEpoch = info.Epochs[i] + 1
			info.SnapshotTail = int(binary.LittleEndian.Uint64(scan.snap[0]))
			info.SnapshotBody = slices.Concat(scan.snap...)[snapJSize:]
		}
	}
	return info, nil
}
