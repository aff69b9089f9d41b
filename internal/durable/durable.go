// Package durable is the pluggable persistence layer behind the
// amcast.SnapshotEngine seam: a write-ahead log of every input envelope
// (CRC-framed, fsync-batched) plus periodic snapshot files, organized
// in epochs, plus one journal of the snapshots' tails.
//
//	wal-%08d.log   input records of epoch e (wire-codec frames)
//	snap-%08d.snap engine state after every record of epochs < e: a
//	               checksum, the length J of the journal prefix the
//	               snapshot is joined with, and the snapshot body
//	journal.log    the tail instalments (amcast.TailSnapshot) of every
//	               snapshot taken so far, one after the other, never
//	               rotated: snapshot e decodes from its body and the
//	               journal's first J bytes
//
// What a tail holds is the snapshot's business — append-only logs whose
// entries are written once instead of once per snapshot: FlexCast's
// delivery tombstones, the store's order queue, framed by whoever owns
// them. This package sees bytes: it asks each snapshot for the
// instalment that follows the previous persisted snapshot's, appends it,
// and hands Options.Decode the body joined with the journal prefix.
//
// At a cadence point the engine goroutine captures a snapshot, fsyncs
// and closes wal-e, opens wal-(e+1) and hands the snapshot value to a
// background persist job (persist.go), which appends the new instalment
// to the journal, writes snap-(e+1) (tmp + rename, so a crash never
// leaves a half-written snapshot under the real name) and deletes epoch
// e — the store-level consumer of the paper's §4.3 truncate-delivered-
// prefixes rule. Recovery restores the newest snapshot that decodes and
// replays only the WAL epochs at or after it, so recovery work is
// bounded by the snapshot cadence — one cadence of input once the
// persist job has finished, two while it is in flight — never by run
// length. A torn record at the WAL tail (the partial write a kill -9
// leaves) is detected by its frame CRC and truncated away.
//
// The failure model is process crash (kill -9): write()n data survives
// in the page cache even when the process dies before fsync. Batched
// fsync (Options.FsyncEvery) bounds what a simultaneous machine crash
// could lose; tests inject torn tails explicitly rather than relying on
// the kernel to produce them.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
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
	// Decode decodes a snapshot file previously written by the engine's
	// Snapshot (an amcast.BinarySnapshot). Required: it is the protocol
	// half of the on-disk format (core.UnmarshalSnapshot, or
	// store.UnmarshalSnapshot composed over it for executors).
	Decode func([]byte) (amcast.Snapshot, error)
	// KeepEpochs retains superseded WAL and snapshot files instead of
	// deleting them (debugging, archaeology).
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
	// SnapshotEpoch is the epoch of the restored snapshot (0 = none,
	// recovery started from the engine's fresh state).
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
	// TornTailBytes is the length of the discarded torn WAL tail.
	TornTailBytes int64
	// CorruptSnapshots counts snapshot files that existed but failed to
	// read or decode, forcing fallback to an older epoch. Recovery fails
	// outright when no snapshot on disk decodes at all.
	CorruptSnapshots int
	// Elapsed is the wall-clock recovery time (restore + replay).
	Elapsed time.Duration
}

func walPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", epoch))
}

func snapPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", epoch))
}

const snapTmpSuffix = ".tmp"

func journalPath(dir string) string { return filepath.Join(dir, "journal.log") }

// snapHeaderSize is the snapshot file's header: u32le CRC-32C of
// everything behind it, then u64le J, the number of journal bytes that
// are the snapshot's tail. The body follows unframed (a snapshot file
// is not a WAL record and has no size limit). The checksum is what makes
// "the newest snapshot that decodes" a defence: a flipped bit inside a
// varint still decodes, into a different state.
const snapHeaderSize = 12

// sealSnapshot fills in the header of a snapshot file image whose body
// is in place behind it.
func sealSnapshot(file []byte, j uint64) {
	binary.LittleEndian.PutUint64(file[4:], j)
	binary.LittleEndian.PutUint32(file, crc32.Checksum(file[4:], crcTable))
}

// scanEpochs lists the wal and snapshot epochs present in dir, sorted
// ascending.
func scanEpochs(dir string) (wals, snaps []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range ents {
		var e uint64
		switch {
		case matchEpoch(ent.Name(), "wal-%08d.log", &e):
			wals = append(wals, e)
		case matchEpoch(ent.Name(), "snap-%08d.snap", &e):
			snaps = append(snaps, e)
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return wals, snaps, nil
}

func matchEpoch(name, pattern string, e *uint64) bool {
	var got uint64
	if n, err := fmt.Sscanf(name, pattern, &got); n == 1 && err == nil {
		if fmt.Sprintf(pattern, got) == name {
			*e = got
			return true
		}
	}
	return false
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

// readSnapshot reads snap-epoch and joins its body with the journal
// prefix it names, giving back the snapshot encoding and J. The journal's
// tail bytes are joined[room:]; the body is copied in front of them, so
// that what a join moves is a body, not a journal — after a long run most
// of the directory.
func readSnapshot(dir string, epoch uint64, joined []byte, room int) (data []byte, j int, err error) {
	file, err := os.ReadFile(snapPath(dir, epoch))
	if err != nil {
		return nil, 0, err
	}
	if len(file) < snapHeaderSize || len(file) > room {
		return nil, 0, fmt.Errorf("%d-byte file: shorter than its header, or grown since recovery began", len(file))
	}
	if crc32.Checksum(file[4:], crcTable) != binary.LittleEndian.Uint32(file) {
		return nil, 0, fmt.Errorf("checksum mismatch")
	}
	need := binary.LittleEndian.Uint64(file[4:])
	if have := len(joined) - room; need > uint64(have) {
		return nil, 0, fmt.Errorf("needs %d journal bytes, %d are intact", need, have)
	}
	body := file[snapHeaderSize:]
	copy(joined[room-len(body):], body)
	return joined[room-len(body) : room+int(need)], int(need), nil
}

// recover restores the newest decodable snapshot, replays WAL epochs at
// or after it, and opens the current WAL for appending (past any torn
// tail, which is truncated).
func (e *Engine) recover() error {
	start := time.Now()
	dir := e.opts.Dir
	// A crash mid-write leaves a snap-*.tmp: never renamed, so nothing
	// refers to it. A miss here only leaks the file.
	tmps, _ := filepath.Glob(filepath.Join(dir, "snap-*"+snapTmpSuffix))
	for _, tmp := range tmps {
		_ = os.Remove(tmp)
	}
	wals, snaps, err := scanEpochs(dir)
	if err != nil {
		return err
	}
	jscan, err := readWAL(journalPath(dir))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	room := 0 // for the largest snapshot file: see readSnapshot
	for _, se := range snaps {
		if info, err := os.Stat(snapPath(dir, se)); err == nil {
			room = max(room, int(info.Size()))
		}
	}
	joined := make([]byte, room, room+int(jscan.goodLen))
	for _, rec := range jscan.records {
		joined = append(joined, rec...)
	}
	// Restore the newest snapshot that decodes. An unreadable snapshot
	// costs replay length, not correctness, when an older one plus its
	// WAL epochs still exist (KeepEpochs, or a crash before the persist
	// job's delete) — fall back and report it in CorruptSnapshots. When
	// nothing on disk decodes the truncated prefix is unrecoverable: fail
	// loudly below instead of silently starting from fresh state plus
	// the surviving WAL suffix.
	snapEpoch := uint64(0)
	tailLen := 0
	var snapErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		data, j, err := readSnapshot(dir, snaps[i], joined, room)
		if err != nil {
			snapErr = fmt.Errorf("durable: read snapshot epoch %d: %w", snaps[i], err)
			e.stats.CorruptSnapshots++
			continue
		}
		snap, err := e.opts.Decode(data)
		if err != nil {
			snapErr = fmt.Errorf("durable: decode snapshot epoch %d: %w", snaps[i], err)
			e.stats.CorruptSnapshots++
			continue
		}
		if err := e.inner.Restore(snap); err != nil {
			return fmt.Errorf("durable: restore snapshot epoch %d: %w", snaps[i], err)
		}
		e.inner.TakeDeliveries() // restore discards undrained deliveries
		snapEpoch, tailLen, e.p.prev = snaps[i], j, snap
		e.stats.SnapshotEpoch = snaps[i]
		e.stats.SnapshotBytes = len(data)
		e.stats.Recovered = true
		break
	}
	if snapEpoch == 0 && snapErr != nil {
		return snapErr
	}
	// The journal continues from the restored snapshot's tail: whatever
	// lies past it — a later snapshot's bytes, a torn record — is cut
	// off, and replay regenerates it.
	if err := e.p.openJournal(jscan, tailLen); err != nil {
		return err
	}
	e.p.oldest = snapEpoch
	// Replay the WAL suffix: every record of every epoch >= snapEpoch,
	// ascending. Outputs and deliveries were already emitted before the
	// crash; replay only rebuilds state.
	curEpoch := snapEpoch
	var curGoodLen int64
	for _, we := range wals {
		if we < snapEpoch {
			continue
		}
		scan, err := readWAL(walPath(e.opts.Dir, we))
		if err != nil {
			return err
		}
		for _, rec := range scan.records {
			envs, err := codec.DecodeFrame(rec)
			if err != nil {
				return fmt.Errorf("durable: wal epoch %d record %d: %w", we, e.stats.ReplayedRecords, err)
			}
			amcast.BatchStep(e.inner, envs)
			e.inner.TakeDeliveries()
			e.stats.ReplayedRecords++
			e.stats.ReplayedEnvelopes += len(envs)
			e.stats.Recovered = true
		}
		e.stats.TornTailBytes += scan.tornBytes
		if we >= curEpoch {
			curEpoch, curGoodLen = we, scan.goodLen
		}
	}
	e.epoch = curEpoch
	e.sinceSnap = e.stats.ReplayedEnvelopes
	e.w, err = openWALWriter(walPath(e.opts.Dir, curEpoch), e.opts.FsyncEvery, curGoodLen)
	if err != nil {
		return err
	}
	if !e.opts.KeepEpochs {
		// Epochs below the restored snapshot are covered by it. Superseded
		// snapshots go first: a crash mid-way then leaves an orphaned old
		// WAL (harmless, re-deleted next time) rather than an old snapshot
		// whose WAL epochs are gone, which recovery could otherwise fall
		// back on and silently replay an incomplete suffix.
		for _, se := range snaps {
			if se < snapEpoch {
				_ = os.Remove(snapPath(dir, se)) // a leftover costs space only
			}
		}
		for _, we := range wals {
			if we < snapEpoch {
				_ = os.Remove(walPath(dir, we))
			}
		}
	}
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

// snapshot is a cadence point: capture the engine state, seal wal-e,
// open wal-(e+1), and leave everything that touches the snapshot file
// to a persist job. One job runs at a time, so a due snapshot first
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
	// wal-e must be on disk before the snapshot that supersedes it can
	// be: snap-(e+1) claims to cover every record of epoch e.
	if err := e.w.close(); err != nil {
		return err
	}
	next := e.epoch + 1
	w, err := openWALWriter(walPath(e.opts.Dir, next), e.opts.FsyncEvery, 0)
	if err != nil {
		return err
	}
	e.w = w
	e.epoch = next
	e.sinceSnap = 0
	e.p.start(snap, next)
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
