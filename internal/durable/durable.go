// Package durable is the pluggable persistence layer behind the
// amcast.SnapshotEngine seam: a write-ahead log of every input envelope
// (CRC-framed, fsync-batched) with a checkpoint every Options.SnapshotEvery
// inputs or KiB of input, organized in epochs each of which ends, once
// sealed, with a snapshot, plus one journal of the snapshots' tails.
//
//	wal-%08d.log   epoch e: its input records (wire-codec frames) and,
//	               between them, its checkpoint records — each a delta
//	               (amcast.DeltaEngine) from the state at the checkpoint
//	               before it, the first from the snapshot sealing epoch
//	               e-1 — then, once sealed, a snapshot record: the engine
//	               state after the epoch's last input, as the length J of
//	               the journal prefix the snapshot is joined with, and its
//	               body
//	journal.log    the tail instalments (amcast.BinarySnapshot) of every
//	               snapshot taken so far, one after the other, never
//	               rotated: the snapshot in wal-e decodes from its body
//	               and the journal's first J bytes
//	FORMAT         the record format's tag (formatTag), written when
//	               the directory is started
//
// Every record is the engine's one encoding of its state: a body written
// against a mark and instalments of its append-only logs (FlexCast's
// delivery tombstones, the store's order queue). A checkpoint is the body
// against the previous checkpoint's mark and one instalment; a snapshot
// is the body against the zero mark, its instalments the journal. This
// package sees bytes: it asks each snapshot for the instalment that
// follows the previous persisted snapshot's, appends it, and hands
// the engine's reader the body joined with the journal prefix.
//
// A cadence point (a checkpoint) is, as a rule, one write on the engine
// goroutine: a checkpoint record holding what changed since the last
// checkpoint. Only when the deltas written since the last snapshot
// outweigh that snapshot's body — so that recovery decodes at most about
// twice a body — or when there is no chain to extend (the engine writes
// no deltas, nothing was snapshotted since Wrap or Restore) does the
// cadence point snapshot: the engine goroutine captures the state, splits
// it into body and tail instalment, creates wal-(e+1) and hands them and
// wal-e's open file to a background persist job (persist.go) — no fsync,
// no close. The job
// journals the new instalment, appends the snapshot record to wal-e,
// fsyncs it (the seal) and deletes the epochs below e — the store-level
// consumer of the paper's §4.3 truncate-delivered-prefixes rule.
//
// Recovery restores the newest snapshot that decodes, applies the
// checkpoints behind it in order and replays only the inputs behind the
// last of them, so its work is bounded by the checkpoint cadence — one
// cadence of input once the persist job has finished, two while it is in
// flight — never by run length. The cadence counts bytes as well as
// envelopes for that reason: a group that receives few but large inputs
// (FlexCast's flush messages and acks, which carry history) never reached
// 256 envelopes in a 10 s durable benchmark run and replayed its whole
// log, 80–120 ms per group on 2 vCPU. Restoring a snapshot runs the
// engine's reader once: the engine applies the snapshot as the delta from
// its empty state (amcast.DeltaEngine), and only an engine that writes no
// deltas goes through Options.Decode and Restore. A torn record at the
// tail of the newest epoch (the partial write a kill -9 leaves) is
// detected by its frame CRC and truncated away, a snapshot record cut
// short is ignored, a checkpoint whose delta is damaged is stepped over —
// the inputs it covered are replayed, and the next checkpoint applies on
// top — and a damaged input record in an older epoch is a hole in the
// input: recovery fails.
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
	// SnapshotEvery checkpoints every N input envelopes or N KiB of input
	// records, whichever comes first (default 256, so 256 KiB; <0
	// disables checkpoints, the WAL grows unbounded and recovery replays
	// it all): a checkpoint record, or a snapshot and a WAL rotation when
	// the checkpoints since the last snapshot outweigh its body. The
	// replay a crash costs is bounded by it, in envelopes and in bytes;
	// before the byte budget, a group whose few inputs were large never
	// checkpointed and replayed its whole log.
	SnapshotEvery int
	// FsyncEvery fsyncs the WAL every N appends (default 64; 1 fsyncs
	// every append, <0 never fsyncs — kill -9 durability only).
	FsyncEvery int
	// Decode decodes a snapshot record previously written by the
	// engine's Snapshot (an amcast.BinarySnapshot): its body joined with
	// its journal. Required: it is the protocol
	// half of the on-disk format (core.UnmarshalSnapshot, or
	// store.UnmarshalSnapshot composed over it for executors). Recovery
	// calls it only for an engine that writes no deltas; one that does
	// reads the record itself (ApplyDelta).
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
	// Checkpoints counts the checkpoint records applied on top of the
	// restored snapshot; CorruptCheckpoints those stepped over because
	// their delta failed its checksum or did not apply, whose inputs were
	// replayed instead.
	Checkpoints        int
	CorruptCheckpoints int
	// ReplayedRecords counts the WAL input records replayed (each one
	// input frame: a single envelope or a batch).
	ReplayedRecords int
	// ReplayedEnvelopes counts the envelopes inside those records — the
	// recovery bound the crash tests assert on — and ReplayedBytes their
	// payload bytes, the bound the cadence's byte budget keeps.
	ReplayedEnvelopes int
	ReplayedBytes     int
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

// formatTag names the format of the records this build writes and
// reads. Wrap writes it into a directory that holds no state yet and
// refuses a directory under any other tag, or none, before it decodes a
// record: a record of another format need not fail to decode.
const formatTag, formatFile = "flexcast-durable/1", "FORMAT"

func checkFormat(dir string) error {
	path := filepath.Join(dir, formatFile)
	got, err := os.ReadFile(path)
	have := fmt.Sprintf("format %q", got)
	if errors.Is(err, os.ErrNotExist) {
		wals, err := scanEpochs(dir)
		if _, jerr := os.Stat(journalPath(dir)); err == nil && len(wals) == 0 && errors.Is(jerr, os.ErrNotExist) {
			return os.WriteFile(path, []byte(formatTag), 0o644)
		}
		have = "no format tag"
	} else if err != nil {
		return err
	}
	if string(got) != formatTag {
		return fmt.Errorf("durable: %s holds %s, this build reads format %q", dir, have, formatTag)
	}
	return nil
}

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
	// sinceSnap counts input envelopes appended since the last checkpoint
	// (the replay length a crash right now would pay once the last
	// snapshot's persist job has finished), sinceBytes their records'
	// payload bytes.
	sinceSnap, sinceBytes int
	// delta is the wrapped engine's delta seam (nil without one); mark is
	// the state at the last checkpoint, which the next delta is written
	// against (nil: the next checkpoint snapshots); deltaBytes is the size
	// of the deltas written since the last snapshot, bodyLen that of its
	// body; deltaTail is the buffer the delta's instalment is written to.
	delta               amcast.DeltaEngine
	mark                amcast.Mark
	deltaBytes, bodyLen int
	deltaTail           []byte
	p                   persister
	stats               RecoveryStats
	err                 error
	closed              bool
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
	if err := checkFormat(opts.Dir); err != nil {
		return nil, err
	}
	e := &Engine{inner: inner, opts: opts}
	e.delta, _ = inner.(amcast.DeltaEngine)
	e.p.dir, e.p.keep = opts.Dir, opts.KeepEpochs
	if err := e.recover(); err != nil {
		if e.p.journal != nil {
			e.p.journal.Close()
		}
		return nil, err
	}
	return e, nil
}

// snapshotRecord finds the snapshot behind a scanned epoch's inputs — nil
// without error when there is none, or only the stump a crash left of one
// — and gives back its encoding and J. The encoding is the body joined
// with the journal prefix it names: the journal's tail bytes are
// joined[room:], and the body is copied in front of them, so that a join
// moves a body, not a journal — after a long run most of the directory.
func snapshotRecord(scan walScan, joined []byte, room int) (data []byte, j int, err error) {
	switch {
	case scan.corrupt:
		return nil, 0, errors.New("checksum mismatch")
	case scan.snap == nil:
		return nil, 0, nil
	case len(scan.snap[0]) < snapJSize:
		return nil, 0, errors.New("shorter than its J")
	}
	need := binary.LittleEndian.Uint64(scan.snap[0])
	if have := len(joined) - room; need > uint64(have) {
		return nil, 0, fmt.Errorf("needs %d journal bytes, %d are intact", need, have)
	}
	at := room
	for i := len(scan.snap) - 1; i >= 0; i-- {
		at -= copy(joined[at-len(scan.snap[i]):], scan.snap[i])
	}
	return joined[at+snapJSize : room+int(need)], int(need), nil
}

// decodeSnapshot reads a snapshot record once. An engine that writes
// deltas applies it itself, as the delta from its empty state — a failed
// read leaves the engine as it was — and the value returned is the
// restored engine's Snapshot(), applied. Any other engine's comes from
// Options.Decode, for the caller to Restore.
func (e *Engine) decodeSnapshot(data []byte) (snap amcast.Snapshot, applied bool, err error) {
	if e.delta != nil && e.delta.Mark() != nil {
		if err := e.delta.ApplyDelta(data); err != nil {
			return nil, false, fmt.Errorf("decode: %w", err)
		}
		return e.inner.Snapshot(), true, nil
	}
	if snap, err = e.opts.Decode(data); err != nil {
		return nil, false, fmt.Errorf("decode: %w", err)
	}
	return snap, false, nil
}

// recover restores the newest snapshot that decodes, applies the
// checkpoints and replays the inputs of the WAL epochs behind it, and
// opens the current WAL for appending (past any torn tail, which is
// truncated). The next checkpoint snapshots.
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
		joined = append(joined, rec.payload...)
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
		data, j, err := snapshotRecord(scan, joined, room)
		var snap amcast.Snapshot
		applied := false
		if err == nil && data != nil {
			snap, applied, err = e.decodeSnapshot(data)
		}
		if err != nil {
			snapErr = fmt.Errorf("durable: snapshot behind epoch %d: %w", wals[i], err)
			e.stats.CorruptSnapshots++
		}
		if snap == nil {
			continue
		}
		if !applied {
			if err := e.inner.Restore(snap); err != nil {
				return fmt.Errorf("durable: restore snapshot behind epoch %d: %w", wals[i], err)
			}
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
	// Bring the engine up to the WAL's end, through every epoch behind the
	// restored one, ascending. A checkpoint's delta is written against the
	// state at the checkpoint before it — for an epoch's first, the
	// snapshot sealing the epoch before — so an applied one makes the
	// inputs since that checkpoint moot, and they are not replayed. Where
	// that state is not at hand — behind a checkpoint that is damaged or
	// does not apply, and behind an epoch whose snapshot was not restored —
	// the inputs since the last checkpoint are replayed to reach it, and
	// the next delta applies on top. Outputs and deliveries were already
	// emitted before the crash; replay only rebuilds state.
	var pending [][]byte // inputs of the epoch since its last checkpoint
	replay := func(epoch uint64) error {
		for _, rec := range pending {
			envs, err := codec.DecodeFrame(rec)
			if err != nil {
				return fmt.Errorf("durable: wal epoch %d record %d: %w", epoch, e.stats.ReplayedRecords, err)
			}
			amcast.BatchStep(e.inner, envs)
			e.inner.TakeDeliveries()
			e.stats.ReplayedRecords++
			e.stats.ReplayedEnvelopes += len(envs)
			e.stats.ReplayedBytes += len(rec)
			e.stats.Recovered = true
		}
		pending = pending[:0]
		return nil
	}
	for i := base + 1; i < len(wals); i++ {
		for _, rec := range scans[i].records {
			switch {
			case !rec.checkpoint:
				pending = append(pending, rec.payload)
			case e.delta != nil && rec.payload != nil && e.delta.ApplyDelta(rec.payload) == nil:
				e.inner.TakeDeliveries()
				pending = pending[:0]
				e.stats.Checkpoints++
				e.stats.Recovered = true
			default:
				if e.delta != nil {
					e.stats.CorruptCheckpoints++
				}
				if err := replay(wals[i]); err != nil {
					return err
				}
			}
		}
		if err := replay(wals[i]); err != nil {
			return err
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
	e.sinceSnap, e.sinceBytes = e.stats.ReplayedEnvelopes, e.stats.ReplayedBytes
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

// Err returns the latched I/O error, if any: the first WAL append,
// rotation or persist job that failed. State on disk is frozen at that
// point. A persist job's failure is picked up when the engine next
// meets the persister: at the following cadence point, Sync or Close.
func (e *Engine) Err() error { return e.err }

// log appends one input record, built on the WAL writer's frame, before
// its envelopes reach the engine.
func (e *Engine) log(rec []byte, envelopes int) {
	if err := e.w.commit(rec, kindInput); err != nil {
		e.err = err
		return
	}
	e.sinceSnap += envelopes
	e.sinceBytes += len(rec) - walHeaderSize
}

// Group implements amcast.Engine.
func (e *Engine) Group() amcast.GroupID { return e.inner.Group() }

// OnEnvelope implements amcast.Engine: the envelope is appended to the
// WAL, then forwarded.
func (e *Engine) OnEnvelope(env amcast.Envelope) []amcast.Output {
	if e.err == nil {
		e.log(codec.Append(e.w.frame(kindInput), env), 1)
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
		e.log(codec.AppendBatch(e.w.frame(kindInput), envs), len(envs))
	}
	return amcast.BatchStep(e.inner, envs)
}

// TakeDeliveries implements amcast.Engine and is the checkpoint point:
// right after a drain the engine's delivery buffer is empty, so the
// checkpoint restores to a state with nothing half-emitted. It comes
// after SnapshotEvery input envelopes or SnapshotEvery KiB of input
// records — a fixed rule, not an option — so that a crash replays at
// most about that much input of either kind however large the inputs.
func (e *Engine) TakeDeliveries() []amcast.Delivery {
	dels := e.inner.TakeDeliveries()
	if e.err == nil && e.opts.SnapshotEvery > 0 && (e.sinceSnap >= e.opts.SnapshotEvery || e.sinceBytes >= e.opts.SnapshotEvery<<10) {
		e.err = e.checkpoint()
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

// checkpoint is a cadence point. With a chain to extend and the deltas
// since the last snapshot not yet outweighing its body, it appends a
// delta — a fixed rule, not an option: what a recovery decodes stays
// within about twice a body — and does not wait for the persist job in
// flight, if any: the replay a crash costs meanwhile is the two cadences
// around the snapshot it is sealing. Otherwise, and for a delta too large
// for one record, it snapshots.
func (e *Engine) checkpoint() error {
	start := time.Now()
	if e.mark != nil && e.deltaBytes <= e.bodyLen {
		if err := e.p.poll(); err != nil {
			return err
		}
		rec, tail, err := e.delta.AppendDelta(e.w.frame(kindCheckpoint), e.deltaTail[:0], e.mark)
		if err != nil {
			return err
		}
		rec, e.deltaTail = append(rec, tail...), tail
		if n := len(rec) - walHeaderSize; n <= recordChunk {
			if err := e.w.commit(rec, kindCheckpoint); err != nil {
				return err
			}
			e.mark, e.deltaBytes, e.sinceSnap, e.sinceBytes = e.delta.Mark(), e.deltaBytes+n, 0, 0
			snapshotHist.Record(uint64(time.Since(start)))
			return nil
		}
	}
	return e.snapshot(start)
}

// snapshot is a checkpoint that captures the engine state, splits it
// into body and tail instalment, creates wal-(e+1), and leaves wal-e —
// its snapshot record, its fsync, its close — to a persist job. One job
// runs at a time, so it first waits for the previous one: the image on
// disk is never more than two cadences behind. The next delta is written
// against the captured state.
func (e *Engine) snapshot(start time.Time) error {
	e.awaitPersist()
	backpressureHist.Record(uint64(time.Since(start)))
	if e.err != nil {
		return e.err
	}
	snap := e.inner.Snapshot()
	n, err := e.p.split(snap)
	if err != nil {
		return err
	}
	e.mark, e.deltaBytes, e.bodyLen = nil, 0, n
	if e.delta != nil {
		e.mark = e.delta.Mark()
	}
	f, err := os.OpenFile(walPath(e.opts.Dir, e.epoch+1), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	e.p.start(snap, e.epoch, e.w.f)
	e.w = &walWriter{f: f, fsyncEvery: e.opts.FsyncEvery, buf: e.w.buf, sealed: e.p.wait}
	e.epoch++
	e.sinceSnap, e.sinceBytes = 0, 0
	snapshotHist.Record(uint64(time.Since(start)))
	return nil
}

// Snapshot implements amcast.SnapshotEngine (forwarded).
func (e *Engine) Snapshot() amcast.Snapshot { return e.inner.Snapshot() }

// Restore implements amcast.SnapshotEngine (forwarded). Restoring past
// state rewinds neither the on-disk log nor the journal — nothing
// restores a wrapped engine; recovery is Wrap over the directory — but
// it ends the checkpoint chain: the next checkpoint snapshots.
func (e *Engine) Restore(s amcast.Snapshot) error {
	e.mark = nil
	return e.inner.Restore(s)
}

// CheckHistoryAcyclic forwards the inner engine's ordering audit.
func (e *Engine) CheckHistoryAcyclic() error {
	if c, ok := e.inner.(interface{ CheckHistoryAcyclic() error }); ok {
		return c.CheckHistoryAcyclic()
	}
	return nil
}

// Sync forces the WAL to disk and waits for the persist job in flight:
// when it returns nil, a crash image replays the envelopes appended
// since the last checkpoint.
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
