package durable

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"time"

	"flexcast/amcast"
)

// persistStep names one step of a persist job, in execution order. The
// job seals epoch e: it is handed the snapshot taken behind e's last
// input, split into its body and tail instalment, and wal-e's open file,
// while the engine appends to wal-(e+1). A crash after any step leaves a
// directory recovery accepts:
//
//	journalAppend, journalSync  the journal holds an instalment no
//	                            snapshot names; recovery cuts it back
//	snapshotAppend              wal-e ends in a snapshot record, whole or
//	                            (a crash inside the write) cut short: a
//	                            short one is ignored, a whole one is
//	                            usable — its journal bytes were fsynced
//	                            one step ago; the older epochs are still
//	                            there either way
//	seal                        wal-e is fsynced, inputs and snapshot —
//	                            only now may what it supersedes go
//	remove                      every epoch below e; a crash mid-way
//	                            leaves old files recovery deletes
//
// The journal goes first because a visible snapshot must find its tail:
// were it appended after the snapshot record, a crash in between would
// leave the newest snapshot asking for journal bytes that do not exist.
//
// What to append is the persister's knowledge: prev, the snapshot whose
// tail the journal ends with. The engine cannot know it — its Snapshot()
// is also taken by callers that persist nothing — so the instalment is
// asked of the snapshot value against prev (amcast.BinarySnapshot), never
// kept as a mark inside the engine.
type persistStep int

const (
	stepJournalAppend persistStep = iota
	stepJournalSync
	stepSnapshotAppend
	stepSeal
	stepRemove
	numPersistSteps
)

var persistStepNames = [numPersistSteps]string{
	"journal append", "journal fsync", "snapshot append", "seal", "remove superseded epochs",
}

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
	// body, tail and recs are the job's buffers — J and the snapshot body,
	// the tail instalment, either of them framed into records — kept from
	// one job to the next, so each is built once at its final size instead
	// of grown from nothing every time. split fills the first two.
	body, tail, recs []byte
	// oldest is the lowest epoch whose file may still be on disk: each
	// job removes [oldest, the epoch it seals).
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
		off = rec.end
		n += len(rec.payload)
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

// poll returns the latched error when no job is in flight or the one in
// flight has finished, without waiting for it.
func (p *persister) poll() error {
	select {
	case <-p.done:
		p.done = nil
	default:
		if p.done != nil {
			return nil
		}
	}
	return p.err
}

// split encodes snap into the job buffers, its tail as the instalment
// that follows prev's, and returns the size of its body. The caller has
// waited for the previous job and seen no error.
func (p *persister) split(snap amcast.Snapshot) (int, error) {
	bs, ok := snap.(amcast.BinarySnapshot)
	if !ok {
		return 0, fmt.Errorf("durable: snapshot %T has no binary form", snap)
	}
	body, tail, err := bs.AppendSplit(append(p.body[:0], make([]byte, snapJSize)...), p.tail[:0], p.prev)
	if err != nil {
		return 0, err
	}
	p.body, p.tail = body, tail
	binary.LittleEndian.PutUint64(body, uint64(p.journalLen+len(tail)))
	bodyBytesHist.Record(uint64(len(body) - snapJSize))
	return len(body) - snapJSize, nil
}

// start launches the job that seals epoch with snap, split into the job
// buffers and the state behind the last record of f, that epoch's file;
// the job owns f from here.
func (p *persister) start(snap amcast.Snapshot, epoch uint64, f *os.File) {
	done := make(chan struct{})
	p.done = done
	abandoned.Store(p.dir, done)
	go func() {
		start := time.Now()
		p.err = p.persist(snap, epoch, f)
		f.Close()
		persistHist.Record(uint64(time.Since(start)))
		abandoned.CompareAndDelete(p.dir, done)
		close(done)
	}()
}

// snapJSize is what precedes the body in a snapshot's payload: u64le J,
// the number of journal bytes that are the snapshot's tail.
const snapJSize = 8

func (p *persister) persist(snap amcast.Snapshot, epoch uint64, f *os.File) error {
	body, tail := p.body, p.tail
	write := func(to *os.File, payload []byte, snapshot bool) error {
		p.recs = appendRecords(p.recs[:0], payload, snapshot)
		_, err := to.Write(p.recs)
		return err
	}
	steps := [numPersistSteps]func() error{
		stepJournalAppend: func() error { return write(p.journal, tail, false) },
		stepJournalSync: func() error {
			if len(tail) == 0 {
				return nil
			}
			if err := p.journal.Sync(); err != nil {
				return err
			}
			p.journalLen += len(tail)
			p.prev = snap
			return nil
		},
		stepSnapshotAppend: func() error { return write(f, body, true) },
		stepSeal:           f.Sync,
		stepRemove: func() error {
			for ; !p.keep && p.oldest < epoch; p.oldest++ {
				// A leftover costs space only, and recovery removes it.
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
