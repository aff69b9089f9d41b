package durable

import (
	"fmt"
	"os"
	"sync"
	"time"

	"flexcast/amcast"
)

// persistStep names one step of a persist job, in execution order. A
// crash after any of them leaves a directory recovery accepts:
//
//	journalAppend, journalSync  the journal holds an instalment no visible
//	                            snapshot names; recovery cuts it back
//	tmpWrite, tmpSync           a snap-*.tmp nothing refers to; removed
//	rename                      snap-(e+1) is visible and complete (its
//	                            journal bytes were fsynced two steps ago);
//	                            epoch e is still there as well
//	dirSync                     the rename is durable — only now may the
//	                            superseded epoch go
//	remove                      snap-e first, then wal-e: a crash between
//	                            the two leaves an orphaned WAL, never a
//	                            snapshot without its log
//
// The journal goes first because a visible snapshot must find its tail:
// were it appended after the rename, a crash in between would leave the
// newest snapshot asking for journal bytes that do not exist.
//
// What to append is the persister's knowledge: prev, the snapshot whose
// tail the journal ends with. The engine cannot know it — its Snapshot()
// is also taken by callers that persist nothing — so the delta is asked
// of the snapshot value against prev (amcast.TailSnapshot), never kept
// as a mark inside the engine.
type persistStep int

const (
	stepJournalAppend persistStep = iota
	stepJournalSync
	stepTmpWrite
	stepTmpSync
	stepRename
	stepDirSync
	stepRemove
	numPersistSteps
)

var persistStepNames = [numPersistSteps]string{
	"journal append", "journal fsync", "snapshot write", "snapshot fsync", "rename", "directory fsync", "remove superseded epoch",
}

// journalChunk bounds one journal record's payload (maxWALRecord is the
// reader's corruption threshold; an instalment is a few kilobytes unless
// the snapshot cadence is set very wide).
const journalChunk = 1 << 20

// persister makes captured snapshots durable off the engine goroutine,
// one job at a time. Its fields belong to the running job's goroutine
// while done is open and to the engine goroutine otherwise; start and
// wait are the hand-overs.
type persister struct {
	dir  string
	keep bool
	// journal is journal.log, positioned at its end; journalLen is the
	// number of tail bytes it holds, all fsynced, and prev the snapshot
	// they end with (nil while there is none): the next job appends what
	// its snapshot's tail adds to prev's.
	journal    *os.File
	journalLen int
	prev       amcast.Snapshot
	// file, tail and delta are the job's buffers — the snapshot file's
	// image, the tail instalment, the instalment framed into journal
	// records — kept from one job to the next, so each is built once at
	// its final size instead of grown from nothing every time.
	file, tail, delta []byte
	// oldest is the lowest epoch whose files may still be on disk: each
	// job removes [oldest, its own epoch).
	oldest uint64
	// done is closed when the job in flight finishes; nil when idle.
	done chan struct{}
	// err is the first job failure. Later snapshots are not persisted:
	// the directory stays as the failed job left it.
	err error
	// hook, test-only, runs after every step of a job; an error it
	// returns is taken as that step's failure.
	hook func(persistStep) error
}

// abandoned holds, per directory, the done channel of the persist job in
// flight there. A process crash takes the job down with the engine, but
// a test that abandons an engine without Close — the in-process kill -9
// — leaves the job running; Wrap waits for it (awaitAbandoned) so that
// two writers never share a directory.
var abandoned sync.Map

func awaitAbandoned(dir string) {
	if done, ok := abandoned.Load(dir); ok {
		<-done.(chan struct{})
	}
}

// openJournal opens journal.log for appending behind its first tailLen
// tail bytes, which end at a record boundary of scan (every J a snapshot
// names does: a job appends whole records, then writes the snapshot).
func (p *persister) openJournal(scan walScan, tailLen int) error {
	off, n := int64(0), 0
	for _, rec := range scan.records {
		if n >= tailLen {
			break
		}
		off += walHeaderSize + int64(len(rec))
		n += len(rec)
	}
	if n != tailLen {
		return fmt.Errorf("durable: journal has no record boundary at tail length %d", tailLen)
	}
	f, err := openAppendAt(journalPath(p.dir), off)
	if err != nil {
		return err
	}
	p.journal, p.journalLen = f, tailLen
	return nil
}

// wait blocks until no job is in flight and returns the latched error.
func (p *persister) wait() error {
	if p.done != nil {
		<-p.done
		p.done = nil
	}
	return p.err
}

// start launches the job persisting snap as snap-epoch. The caller has
// waited for the previous job and seen no error.
func (p *persister) start(snap amcast.Snapshot, epoch uint64) {
	done := make(chan struct{})
	p.done = done
	abandoned.Store(p.dir, done)
	go func() {
		start := time.Now()
		p.err = p.persist(snap, epoch)
		persistHist.Record(uint64(time.Since(start)))
		abandoned.CompareAndDelete(p.dir, done)
		close(done)
	}()
}

// splitSnapshot appends snap's body to body and, to tail, the instalment
// of its tail that follows prev's; a snapshot without a tail is all body.
func splitSnapshot(snap, prev amcast.Snapshot, body, tail []byte) ([]byte, []byte, error) {
	switch s := snap.(type) {
	case amcast.TailSnapshot:
		return s.AppendSplit(body, tail, prev)
	case amcast.BinarySnapshot:
		data, err := s.MarshalBinary()
		return append(body, data...), tail, err
	}
	return nil, nil, fmt.Errorf("durable: snapshot %T has no binary form", snap)
}

func (p *persister) persist(snap amcast.Snapshot, epoch uint64) error {
	file, tail, err := splitSnapshot(snap, p.prev, append(p.file[:0], make([]byte, snapHeaderSize)...), p.tail[:0])
	if err != nil {
		return err
	}
	delta := p.delta[:0]
	for rest := tail; len(rest) > 0; {
		n := min(len(rest), journalChunk)
		delta = appendWALRecord(delta, rest[:n])
		rest = rest[n:]
	}
	p.file, p.tail, p.delta = file, tail, delta
	sealSnapshot(file, uint64(p.journalLen+len(tail)))
	bodyBytesHist.Record(uint64(len(file) - snapHeaderSize))
	final := snapPath(p.dir, epoch)
	tmp := final + snapTmpSuffix
	var f *os.File
	steps := [numPersistSteps]func() error{
		stepJournalAppend: func() error {
			_, err := p.journal.Write(delta)
			return err
		},
		stepJournalSync: func() error {
			if len(delta) == 0 {
				return nil
			}
			if err := p.journal.Sync(); err != nil {
				return err
			}
			p.journalLen += len(tail)
			p.prev = snap
			return nil
		},
		stepTmpWrite: func() (err error) {
			if f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
				return err
			}
			if _, err = f.Write(file); err != nil {
				f.Close()
			}
			return err
		},
		stepTmpSync: func() error {
			if err := f.Sync(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		},
		stepRename:  func() error { return os.Rename(tmp, final) },
		stepDirSync: func() error { return syncDir(p.dir) },
		stepRemove: func() error {
			for ; !p.keep && p.oldest < epoch; p.oldest++ {
				// A leftover costs space only, and recovery removes it.
				_ = os.Remove(snapPath(p.dir, p.oldest))
				_ = os.Remove(walPath(p.dir, p.oldest))
			}
			return nil
		},
	}
	for step, do := range steps {
		err := do()
		if err == nil && p.hook != nil {
			err = p.hook(persistStep(step))
		}
		if err != nil {
			return fmt.Errorf("durable: snapshot epoch %d: %s: %w", epoch, persistStepNames[step], err)
		}
	}
	return nil
}
