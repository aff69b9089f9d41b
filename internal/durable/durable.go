// Package durable is the pluggable persistence layer behind the
// amcast.SnapshotEngine seam: a write-ahead log of every input envelope
// (CRC-framed, fsync-batched), organized in epochs each of which ends,
// once sealed, with a snapshot, plus one journal of the snapshots' tails.
//
//	wal-%08d.log   epoch e: its input records (wire-codec frames), then,
//	               once sealed, a snapshot record — the engine state after
//	               the epoch's last input: the length J of the journal
//	               prefix the snapshot is joined with, and its body
//	journal.log    the tail instalments (amcast.TailSnapshot) of every
//	               snapshot taken so far, one after the other, never
//	               rotated: the snapshot in wal-e decodes from its body
//	               and the journal's first J bytes
//
// What a tail holds is the snapshot's business — append-only logs whose
// entries are written once instead of once per snapshot: FlexCast's
// delivery tombstones, the store's order queue, framed by whoever owns
// them. This package sees bytes: it asks each snapshot for the
// instalment that follows the previous persisted snapshot's, appends it,
// and hands Options.Decode the body joined with the journal prefix.
//
// At a cadence point the engine goroutine captures a snapshot, creates
// wal-(e+1) and hands the snapshot value and wal-e's open file to a
// background persist job (persist.go) — no fsync, no close. The job
// journals the new instalment, appends the snapshot record to wal-e,
// fsyncs it (the seal) and deletes the epochs below e — the store-level
// consumer of the paper's §4.3 truncate-delivered-prefixes rule. Recovery
// restores the newest snapshot that decodes and replays only the epochs
// behind it, so its work is bounded by the snapshot cadence — one cadence
// of input once the persist job has finished, two while it is in flight —
// never by run length. A torn record at the tail of the newest epoch (the
// partial write a kill -9 leaves) is detected by its frame CRC and
// truncated away, a snapshot record cut short is ignored, and a damaged
// input record in an older epoch is a hole in the input: recovery fails.
//
// The failure model is process crash (kill -9): write()n data survives
// in the page cache even when the process dies before fsync. Batched
// fsync (Options.FsyncEvery) bounds what a simultaneous machine crash
// could lose: at most FsyncEvery unsynced appends of the open epoch plus
// what the epoch being sealed had not synced — and never a record behind
// a lost one, because an epoch is not fsynced before its predecessor is
// sealed (walWriter.sync). Tests inject torn tails explicitly rather than
// relying on the kernel to produce them.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// Options configures a durable engine.
type Options struct {
	// Dir is the persistence directory (required; created if missing).
	// One engine per directory.
	Dir string
	// SnapshotEvery takes a snapshot and rotates the WAL every N input
	// envelopes (default 256; <0 disables snapshots, the WAL grows
	// unbounded and recovery replays it all).
	SnapshotEvery int
	// FsyncEvery fsyncs the WAL every N appends (default 64; 1 fsyncs
	// every append, <0 never fsyncs — kill -9 durability only).
	FsyncEvery int
	// Decode decodes a snapshot previously written by the engine's
	// Snapshot (an amcast.BinarySnapshot). Required: it is the protocol
	// half of the on-disk format (core.UnmarshalSnapshot, or
	// store.UnmarshalSnapshot composed over it for executors).
	Decode func([]byte) (amcast.Snapshot, error)
	// KeepEpochs retains superseded epochs instead of deleting them
	// (debugging, archaeology).
	KeepEpochs bool
}

func (o *Options) fill() error {
	if o.Dir == "" {
		return fmt.Errorf("durable: missing directory")
	}
	if o.Decode == nil {
		return fmt.Errorf("durable: missing snapshot decoder")
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 256
	}
	if o.FsyncEvery == 0 {
		o.FsyncEvery = 64
	}
	return nil
}

// RecoveryStats reports what Wrap found and replayed on open.
type RecoveryStats struct {
	// Recovered is true when any prior state (snapshot or WAL records)
	// was found.
	Recovered bool
	// SnapshotEpoch is the first epoch behind the restored snapshot, which
	// sits at the end of wal-(SnapshotEpoch-1) and holds the state after its
	// last record (0 = none, recovery started from the engine's fresh state).
	SnapshotEpoch uint64
	// SnapshotBytes is the restored snapshot's size: its body plus the
	// journal prefix it was joined with.
	SnapshotBytes int
	// ReplayedRecords counts the WAL records replayed (each one input
	// frame: a single envelope or a batch).
	ReplayedRecords int
	// ReplayedEnvelopes counts the envelopes inside those records — the
	// recovery bound the crash tests assert on.
	ReplayedEnvelopes int
	// TornTailBytes is the length of the discarded torn tail of the newest
	// epoch.
	TornTailBytes int64
	// CorruptSnapshots counts snapshots that were whole on disk but failed
	// their checksum, named journal bytes that are not there or did not
	// decode, forcing fallback to an older epoch; one a crash cut short does
	// not count. Recovery fails when none decodes and epoch 0 is gone.
	CorruptSnapshots int
	// Elapsed is the wall-clock recovery time (restore + replay).
	Elapsed time.Duration
}

func walPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", epoch))
}

func journalPath(dir string) string { return filepath.Join(dir, "journal.log") }

// scanEpochs lists the epochs present in dir, ascending.
func scanEpochs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wals []uint64
	for _, ent := range ents {
		const pattern = "wal-%08d.log"
		var e uint64
		if n, err := fmt.Sscanf(ent.Name(), pattern, &e); n == 1 && err == nil && fmt.Sprintf(pattern, e) == ent.Name() {
			wals = append(wals, e)
		}
	}
	slices.Sort(wals)
	return wals, nil
}

// Engine wraps an amcast.SnapshotEngine with the durable backend. It is
// single-owner like the engine it wraps: the runtime goroutine that
// feeds the engine is the only goroutine that may call it — every
// method, Close, Sync and Err included — so the input path needs no
// locking. (Whoever stops that goroutine may then call Close in its
// place.) I/O errors latch (Err) rather than panic — the wrapped engine
// keeps running, durability is reported broken.
type Engine struct {
	inner amcast.SnapshotEngine
	opts  Options

	epoch uint64
	w     *walWriter
	// sinceSnap counts input envelopes appended since the last captured
	// snapshot (the replay length a crash right now would pay once that
	// snapshot's persist job has finished).
	sinceSnap int
	p         persister
	stats     RecoveryStats
	err       error
	closed    bool
}

// Wrap opens (or creates) the durable state under opts.Dir, recovers
// the wrapped engine from it — restore the newest snapshot, replay the
// WAL suffix, truncate any torn tail — and returns the engine ready to
// append. The engine must be freshly constructed (its pre-Wrap state is
// the epoch-0 baseline a recovery without snapshot replays onto).
func Wrap(inner amcast.SnapshotEngine, opts Options) (*Engine, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	opts.Dir = filepath.Clean(opts.Dir)
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	awaitAbandoned(opts.Dir)
	e := &Engine{inner: inner, opts: opts}
	e.p.dir, e.p.keep = opts.Dir, opts.KeepEpochs
	if err := e.recover(); err != nil {
		if e.p.journal != nil {
			e.p.journal.Close()
		}
		return nil, err
	}
	return e, nil
}

// decodeSnapshot decodes the snapshot behind a scanned epoch's inputs —
// nil without error when there is none, or only the stump a crash left of
// one — and gives back its encoding and J. The encoding is the body
// joined with the journal prefix it names: the journal's tail bytes are
// joined[room:], and the body is copied in front of them, so that a join
// moves a body, not a journal — after a long run most of the directory.
func (e *Engine) decodeSnapshot(scan walScan, joined []byte, room int) (snap amcast.Snapshot, data []byte, j int, err error) {
	switch {
	case scan.corrupt:
		return nil, nil, 0, errors.New("checksum mismatch")
	case scan.snap == nil:
		return nil, nil, 0, nil
	case len(scan.snap[0]) < snapJSize:
		return nil, nil, 0, errors.New("shorter than its J")
	}
	need := binary.LittleEndian.Uint64(scan.snap[0])
	if have := len(joined) - room; need > uint64(have) {
		return nil, nil, 0, fmt.Errorf("needs %d journal bytes, %d are intact", need, have)
	}
	at := room
	for i := len(scan.snap) - 1; i >= 0; i-- {
		at -= copy(joined[at-len(scan.snap[i]):], scan.snap[i])
	}
	data = joined[at+snapJSize : room+int(need)]
	if snap, err = e.opts.Decode(data); err != nil {
		return nil, nil, 0, fmt.Errorf("decode: %w", err)
	}
	return snap, data, int(need), nil
}

// recover restores the newest snapshot that decodes, replays the WAL
// epochs behind it, and opens the current WAL for appending (past any
// torn tail, which is truncated).
func (e *Engine) recover() error {
	start := time.Now()
	dir := e.opts.Dir
	wals, err := scanEpochs(dir)
	if err != nil {
		return err
	}
	jscan, err := readWAL(journalPath(dir))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	room := 0 // for the largest snapshot body: see decodeSnapshot
	for _, we := range wals {
		if info, err := os.Stat(walPath(dir, we)); err == nil {
			room = max(room, int(info.Size()))
		}
	}
	joined := make([]byte, room, room+int(jscan.goodLen))
	for _, rec := range jscan.records {
		joined = append(joined, rec...)
	}
	// Restore the newest snapshot that decodes, reading epochs from the
	// newest down. An unreadable snapshot costs replay length, not
	// correctness, when an older one and the epochs since still exist
	// (KeepEpochs, or a crash before the persist job's delete) — fall back
	// and report it in CorruptSnapshots. When nothing decodes, the run is
	// replayed from epoch 0; when that is gone too, recovery fails loudly
	// below instead of silently starting from fresh state plus the
	// surviving WAL suffix.
	scans := make([]walScan, len(wals))
	base, tailLen := -1, 0 // the restored epoch's index, its J
	var snapErr error
	for i := len(wals) - 1; i >= 0 && base < 0; i-- {
		scan, err := readWAL(walPath(dir, wals[i]))
		if err != nil {
			return err
		}
		scans[i] = scan
		// Every input of an epoch was written before the next epoch was
		// created: an older epoch that ends in a damaged input record has
		// lost input that newer epochs build on.
		if i < len(wals)-1 && scan.tornBytes > 0 {
			return fmt.Errorf("durable: wal epoch %d: %d bytes of damaged input records behind byte %d, and epoch %d follows: a hole in the input",
				wals[i], scan.tornBytes, scan.goodLen, wals[i+1])
		}
		snap, data, j, err := e.decodeSnapshot(scan, joined, room)
		if err != nil {
			snapErr = fmt.Errorf("durable: snapshot behind epoch %d: %w", wals[i], err)
			e.stats.CorruptSnapshots++
		}
		if snap == nil {
			continue
		}
		if err := e.inner.Restore(snap); err != nil {
			return fmt.Errorf("durable: restore snapshot behind epoch %d: %w", wals[i], err)
		}
		e.inner.TakeDeliveries() // restore discards undrained deliveries
		base, tailLen, e.p.prev = i, j, snap
		e.stats.SnapshotEpoch = wals[i] + 1
		e.stats.SnapshotBytes = len(data)
		e.stats.Recovered = true
	}
	// What is replayed must be every epoch since the restored state: the
	// epochs are sorted, so the first and the last say whether one is gone.
	next := e.stats.SnapshotEpoch
	if rest := wals[base+1:]; len(rest) > 0 && (rest[0] != next || rest[len(rest)-1] != next+uint64(len(rest)-1)) {
		if snapErr == nil {
			snapErr = fmt.Errorf("durable: wal epochs %v do not continue from epoch %d, and no snapshot covers the gap", rest, next)
		}
		return snapErr
	}
	// The journal continues from the restored snapshot's tail: whatever
	// lies past it — a later snapshot's bytes, a torn record — is cut
	// off, and replay regenerates it.
	if err := e.p.openJournal(jscan, tailLen); err != nil {
		return err
	}
	// Replay the WAL suffix: every input record of every epoch behind the
	// restored one, ascending. Outputs and deliveries were already emitted
	// before the crash; replay only rebuilds state.
	for i := base + 1; i < len(wals); i++ {
		for _, rec := range scans[i].records {
			envs, err := codec.DecodeFrame(rec)
			if err != nil {
				return fmt.Errorf("durable: wal epoch %d record %d: %w", wals[i], e.stats.ReplayedRecords, err)
			}
			amcast.BatchStep(e.inner, envs)
			e.inner.TakeDeliveries()
			e.stats.ReplayedRecords++
			e.stats.ReplayedEnvelopes += len(envs)
			e.stats.Recovered = true
		}
	}
	// Appending resumes in the newest epoch, behind its last whole record, or
	// in a fresh one if that epoch is sealed (its successor's name was lost).
	var goodLen int64
	cur := len(wals) - 1 // index of the epoch appended to, if it exists
	if cur >= 0 {
		e.epoch, goodLen = wals[cur], scans[cur].goodLen
		e.stats.TornTailBytes = scans[cur].tornBytes
		if scans[cur].sealed {
			e.epoch, goodLen, cur = e.epoch+1, 0, cur+1
		}
		e.p.oldest = wals[0] // whatever the restored snapshot covers goes with the next job
	}
	// The epochs below it went to persist jobs that may not have sealed
	// them, and the open one must not be fsynced before they are.
	for i := max(base, 0); i < cur && e.opts.FsyncEvery > 0; i++ {
		f, err := os.OpenFile(walPath(dir, wals[i]), os.O_WRONLY, 0)
		if err == nil {
			err = f.Sync()
			f.Close()
		}
		if err != nil {
			return err
		}
	}
	e.sinceSnap = e.stats.ReplayedEnvelopes
	f, err := openAppendAt(walPath(dir, e.epoch), goodLen)
	if err != nil {
		return err
	}
	e.w = &walWriter{f: f, fsyncEvery: e.opts.FsyncEvery}
	e.stats.Elapsed = time.Since(start)
	return nil
}

// Recovery reports what Wrap restored and replayed.
func (e *Engine) Recovery() RecoveryStats { return e.stats }

// Inner returns the wrapped engine — for layers that need the concrete
// engine underneath (read fast paths, audits). Callers must respect the
// single-owner discipline of the engine they unwrap.
func (e *Engine) Inner() amcast.SnapshotEngine { return e.inner }

// Err returns the latched I/O error, if any: the first WAL append,
// rotation or persist job that failed. State on disk is frozen at that
// point. A persist job's failure is picked up when the engine next
// meets the persister: at the following cadence point, Sync or Close.
func (e *Engine) Err() error { return e.err }

// Epoch returns the current WAL epoch.
func (e *Engine) Epoch() uint64 { return e.epoch }

// SinceSnapshot reports the input envelopes appended since the last
// captured snapshot — the replay length a crash would pay once that
// snapshot's persist job has finished (Sync and Close wait for it).
func (e *Engine) SinceSnapshot() int { return e.sinceSnap }

// log appends one input record, built on the WAL writer's frame, before
// its envelopes reach the engine.
func (e *Engine) log(rec []byte, envelopes int) {
	if err := e.w.commit(rec); err != nil {
		e.err = err
		return
	}
	e.sinceSnap += envelopes
}

// Group implements amcast.Engine.
func (e *Engine) Group() amcast.GroupID { return e.inner.Group() }

// OnEnvelope implements amcast.Engine: the envelope is appended to the
// WAL, then forwarded.
func (e *Engine) OnEnvelope(env amcast.Envelope) []amcast.Output {
	if e.err == nil {
		e.log(codec.Append(e.w.frame(), env), 1)
	}
	return e.inner.OnEnvelope(env)
}

// BatchStep implements amcast.BatchStepper: the batch is appended as
// one record (one frame, one CRC), then forwarded to the engine's batch
// fast path.
func (e *Engine) BatchStep(envs []amcast.Envelope) []amcast.Output {
	if len(envs) == 0 {
		return nil
	}
	if e.err == nil {
		e.log(codec.AppendBatch(e.w.frame(), envs), len(envs))
	}
	return amcast.BatchStep(e.inner, envs)
}

// TakeDeliveries implements amcast.Engine and is the snapshot point:
// right after a drain the engine's delivery buffer is empty, so the
// snapshot restores to a state with nothing half-emitted.
func (e *Engine) TakeDeliveries() []amcast.Delivery {
	dels := e.inner.TakeDeliveries()
	if e.err == nil && e.opts.SnapshotEvery > 0 && e.sinceSnap >= e.opts.SnapshotEvery {
		e.err = e.snapshot()
	}
	return dels
}

// awaitPersist waits for the persist job in flight, if any, and latches
// its failure.
func (e *Engine) awaitPersist() {
	if err := e.p.wait(); err != nil && e.err == nil {
		e.err = err
	}
}

// snapshot is a cadence point: capture the engine state, create
// wal-(e+1), and leave wal-e — its snapshot record, its fsync, its close
// — to a persist job. One job runs at a time, so a due snapshot first
// waits for the previous one — every cadence point snapshots, and the
// image on disk is never more than two cadences behind.
func (e *Engine) snapshot() error {
	start := time.Now()
	e.awaitPersist()
	backpressureHist.Record(uint64(time.Since(start)))
	if e.err != nil {
		return e.err
	}
	snap := e.inner.Snapshot()
	f, err := os.OpenFile(walPath(e.opts.Dir, e.epoch+1), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	e.p.start(snap, e.epoch, e.w.f)
	e.w = &walWriter{f: f, fsyncEvery: e.opts.FsyncEvery, buf: e.w.buf, sealed: e.p.wait}
	e.epoch++
	e.sinceSnap = 0
	snapshotHist.Record(uint64(time.Since(start)))
	return nil
}

// Snapshot implements amcast.SnapshotEngine (forwarded).
func (e *Engine) Snapshot() amcast.Snapshot { return e.inner.Snapshot() }

// Restore implements amcast.SnapshotEngine (forwarded). Restoring past
// state rewinds neither the on-disk log nor the journal — it is a test-
// harness seam (the chaos explorer's in-memory model), not a durability
// operation.
func (e *Engine) Restore(s amcast.Snapshot) error { return e.inner.Restore(s) }

// CheckHistoryAcyclic forwards the inner engine's ordering audit.
func (e *Engine) CheckHistoryAcyclic() error {
	if c, ok := e.inner.(interface{ CheckHistoryAcyclic() error }); ok {
		return c.CheckHistoryAcyclic()
	}
	return nil
}

// Sync forces the WAL to disk and waits for the persist job in flight:
// when it returns nil, a crash image replays SinceSnapshot envelopes.
func (e *Engine) Sync() error {
	e.awaitPersist()
	if e.err == nil {
		e.err = e.w.sync()
	}
	return e.err
}

// Close waits for the persist job in flight, flushes and closes the WAL
// and the journal, and returns the latched error. The engine must not
// be used after.
func (e *Engine) Close() error {
	if e.closed {
		return e.err
	}
	e.closed = true
	e.awaitPersist()
	for _, err := range []error{e.w.close(), e.p.journal.Close()} {
		if e.err == nil {
			e.err = err
		}
	}
	return e.err
}

var _ amcast.SnapshotEngine = (*Engine)(nil)
var _ amcast.BatchStepper = (*Engine)(nil)
