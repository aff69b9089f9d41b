package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/gtpcc"
	"flexcast/internal/overlay"
	"flexcast/internal/store"
)

// newCoreEngine builds a single-group FlexCast engine: every request
// destined to group 1 delivers immediately, which is all the WAL and
// snapshot machinery needs for focused tests.
func newCoreEngine(t *testing.T) amcast.SnapshotEngine {
	t.Helper()
	ov, err := overlay.NewCDAG([]amcast.GroupID{1})
	if err != nil {
		t.Fatal(err)
	}
	return core.MustNew(core.Config{Group: 1, Overlay: ov})
}

func reqEnv(i uint64) amcast.Envelope {
	return amcast.Envelope{
		Kind: amcast.KindRequest,
		From: amcast.ClientNode(0),
		Msg: amcast.Message{
			ID:      amcast.NewMsgID(0, i),
			Sender:  amcast.ClientNode(0),
			Dst:     []amcast.GroupID{1},
			Payload: []byte(fmt.Sprintf("payload-%d", i)),
		},
	}
}

// feed pushes n requests through the engine the way a runtime would:
// input, then drain.
func feed(eng amcast.SnapshotEngine, from, n uint64) int {
	dels := 0
	for i := from; i < from+n; i++ {
		eng.OnEnvelope(reqEnv(i))
		dels += len(eng.TakeDeliveries())
	}
	return dels
}

func marshalState(t *testing.T, eng amcast.SnapshotEngine) []byte {
	t.Helper()
	data, err := eng.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func opts(dir string, snapEvery int) Options {
	return Options{Dir: dir, SnapshotEvery: snapEvery, FsyncEvery: 4, Decode: core.UnmarshalSnapshot}
}

// TestRecoverReplaysOnlySuffix is the core recovery-bound property: a
// hard stop (no Close, no graceful snapshot — the kill -9 image) must
// recover to the exact live state by restoring the newest snapshot and
// replaying only the post-snapshot WAL suffix.
func TestRecoverReplaysOnlySuffix(t *testing.T) {
	dir := t.TempDir()
	live := newCoreEngine(t)
	deng, err := Wrap(live, opts(dir, 10))
	if err != nil {
		t.Fatal(err)
	}
	if deng.Recovery().Recovered {
		t.Fatal("fresh directory reported recovered state")
	}
	if got := feed(deng, 1, 35); got != 35 {
		t.Fatalf("delivered %d of 35", got)
	}
	if err := deng.Err(); err != nil {
		t.Fatal(err)
	}
	want := marshalState(t, live)
	// Kill -9: abandon the wrapper without Close or a final snapshot.

	rec := newCoreEngine(t)
	deng2, err := Wrap(rec, opts(dir, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer deng2.Close()
	st := deng2.Recovery()
	if !st.Recovered {
		t.Fatal("recovery found nothing")
	}
	if st.SnapshotEpoch == 0 {
		t.Fatal("recovery did not restore a snapshot")
	}
	if st.ReplayedEnvelopes >= 10 {
		t.Fatalf("replayed %d envelopes, want < SnapshotEvery=10 (recovery must be bounded by snapshot age)", st.ReplayedEnvelopes)
	}
	if got := marshalState(t, rec); !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from live state (%d vs %d bytes)", len(got), len(want))
	}
	// The recovered engine is live: new inputs append and deliver.
	if got := feed(deng2, 36, 5); got != 5 {
		t.Fatalf("post-recovery delivered %d of 5", got)
	}
}

// TestRecoveryBoundIndependentOfRunLength doubles the run length and
// asserts the replay length stays bounded by the snapshot cadence — the
// recovery-in-bounded-time argument, not merely "recovery works".
func TestRecoveryBoundIndependentOfRunLength(t *testing.T) {
	for _, n := range []uint64{200, 400} {
		dir := t.TempDir()
		live := newCoreEngine(t)
		deng, err := Wrap(live, opts(dir, 25))
		if err != nil {
			t.Fatal(err)
		}
		feed(deng, 1, n)
		rec := newCoreEngine(t)
		deng2, err := Wrap(rec, opts(dir, 25))
		if err != nil {
			t.Fatal(err)
		}
		st := deng2.Recovery()
		deng2.Close()
		if st.ReplayedEnvelopes >= 25 {
			t.Fatalf("run length %d: replayed %d envelopes, want < 25", n, st.ReplayedEnvelopes)
		}
		if got, want := marshalState(t, rec), marshalState(t, live); !bytes.Equal(got, want) {
			t.Fatalf("run length %d: recovered state differs", n)
		}
	}
}

// TestTornTailDiscarded injects the partial record a kill -9 can leave
// mid-write and asserts recovery truncates it cleanly: state equals the
// pre-tear state, the torn bytes are reported, and the log accepts new
// appends afterward.
func TestTornTailDiscarded(t *testing.T) {
	tears := map[string]func([]byte) []byte{
		"half-header": func(rec []byte) []byte { return rec[:walHeaderSize/2] },
		"half-payload": func(rec []byte) []byte {
			return rec[:walHeaderSize+(len(rec)-walHeaderSize)/2]
		},
		"corrupt-crc": func(rec []byte) []byte {
			bad := append([]byte(nil), rec...)
			bad[4] ^= 0xFF
			return bad
		},
	}
	for name, tear := range tears {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			live := newCoreEngine(t)
			deng, err := Wrap(live, opts(dir, -1))
			if err != nil {
				t.Fatal(err)
			}
			feed(deng, 1, 7)
			want := marshalState(t, live)
			// Tear: an unprocessed input was mid-append when the process
			// died. The record is framed correctly, then cut (or corrupted),
			// exactly as an interrupted write() sequence would leave it.
			rec := appendWALRecord(nil, []byte("unprocessed input never fully written"))
			walFile := walPath(dir, deng.Epoch())
			f, err := os.OpenFile(walFile, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tear(rec)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			eng2 := newCoreEngine(t)
			deng2, err := Wrap(eng2, opts(dir, -1))
			if err != nil {
				t.Fatalf("recovery failed on torn tail: %v", err)
			}
			st := deng2.Recovery()
			if st.TornTailBytes == 0 {
				t.Fatal("torn tail not reported")
			}
			if st.ReplayedEnvelopes != 7 {
				t.Fatalf("replayed %d envelopes, want 7 (the tail must not eat valid records)", st.ReplayedEnvelopes)
			}
			if got := marshalState(t, eng2); !bytes.Equal(got, want) {
				t.Fatal("recovered state differs from pre-tear state")
			}
			// The tail was truncated: appends after recovery land where the
			// tear was and survive another recovery.
			feed(deng2, 8, 3)
			deng2.Close()
			eng3 := newCoreEngine(t)
			deng3, err := Wrap(eng3, opts(dir, -1))
			if err != nil {
				t.Fatal(err)
			}
			defer deng3.Close()
			if st := deng3.Recovery(); st.ReplayedEnvelopes != 10 || st.TornTailBytes != 0 {
				t.Fatalf("second recovery replayed %d envelopes (torn %d bytes), want 10 clean",
					st.ReplayedEnvelopes, st.TornTailBytes)
			}
		})
	}
}

// TestSnapshotRotationTruncatesOldEpochs asserts the GC half of the
// design: once snap-e exists, epochs < e are deleted — the WAL never
// accumulates the whole run.
func TestSnapshotRotationTruncatesOldEpochs(t *testing.T) {
	dir := t.TempDir()
	deng, err := Wrap(newCoreEngine(t), opts(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	feed(deng, 1, 42)
	if err := deng.Close(); err != nil {
		t.Fatal(err)
	}
	wals, snaps, err := scanEpochs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) != 1 || len(snaps) != 1 {
		t.Fatalf("after rotation: %d wal files %v, %d snapshots %v; want 1 and 1", len(wals), wals, len(snaps), snaps)
	}
	if wals[0] != snaps[0] {
		t.Fatalf("wal epoch %d != snapshot epoch %d", wals[0], snaps[0])
	}
	if wals[0] < 8 {
		t.Fatalf("epoch %d after 42 inputs at cadence 5: rotation did not keep up", wals[0])
	}
}

// TestKeepEpochsRetainsHistory covers the debugging knob.
func TestKeepEpochsRetainsHistory(t *testing.T) {
	dir := t.TempDir()
	o := opts(dir, 5)
	o.KeepEpochs = true
	deng, err := Wrap(newCoreEngine(t), o)
	if err != nil {
		t.Fatal(err)
	}
	feed(deng, 1, 20)
	deng.Close()
	wals, _, err := scanEpochs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) < 3 {
		t.Fatalf("KeepEpochs retained only %d wal files", len(wals))
	}
}

// TestCrashBetweenRenameAndRemove is the in-between crash: snap-(e+1)
// is visible but epoch e has not been removed yet (the WAL rotated
// before the job started). Recovery must prefer the snapshot and ignore
// the superseded wal-e records.
func TestCrashBetweenRenameAndRemove(t *testing.T) {
	dir := t.TempDir()
	live := newCoreEngine(t)
	deng, err := Wrap(live, opts(dir, 9))
	if err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	deng.p.hook = func(at persistStep) error {
		if at == stepRename {
			parked <- struct{}{}
			<-release
		}
		return nil
	}
	feed(deng, 1, 9)
	<-parked
	want := marshalState(t, live)
	img := copyDir(t, dir)
	release <- struct{}{}
	if err := deng.Close(); err != nil {
		t.Fatal(err)
	}
	if wals, snaps, _ := scanEpochs(img); fmt.Sprint(wals, snaps) != "[0 1] [1]" {
		t.Fatalf("image holds wals and snaps %v %v, want the superseded wal-0 beside epoch 1", wals, snaps)
	}
	rec := newCoreEngine(t)
	deng2, err := Wrap(rec, opts(img, 9))
	if err != nil {
		t.Fatal(err)
	}
	defer deng2.Close()
	st := deng2.Recovery()
	if st.SnapshotEpoch != 1 || st.ReplayedEnvelopes != 0 {
		t.Fatalf("restored epoch %d and replayed %d envelopes over a snapshot that already covers them", st.SnapshotEpoch, st.ReplayedEnvelopes)
	}
	if got := marshalState(t, rec); !bytes.Equal(got, want) {
		t.Fatal("recovered state differs")
	}
}

// TestCorruptSnapshotFallsBack: an undecodable newest snapshot must not
// kill recovery while older epochs still cover the log.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	o := opts(dir, 5)
	o.KeepEpochs = true // retain older snapshots to fall back on
	live := newCoreEngine(t)
	deng, err := Wrap(live, o)
	if err != nil {
		t.Fatal(err)
	}
	feed(deng, 1, 23)
	if err := deng.Sync(); err != nil { // the last snapshot's job finishes
		t.Fatal(err)
	}
	want := marshalState(t, live)
	_, snaps, err := scanEpochs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("need ≥2 snapshots, have %d", len(snaps))
	}
	newest := snaps[len(snaps)-1]
	// The older snapshot's tail is a shorter prefix of the one journal.
	journal, err := readWAL(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	const room = 1 << 16 // for a snapshot body in front of the journal's bytes
	tail := make([]byte, room)
	for _, rec := range journal.records {
		tail = append(tail, rec...)
	}
	_, jOld, err := readSnapshot(dir, snaps[len(snaps)-2], tail, room)
	if err != nil {
		t.Fatal(err)
	}
	if _, jNew, err := readSnapshot(dir, newest, tail, room); err != nil || jOld >= jNew || jNew != len(tail)-room {
		t.Fatalf("snapshot tails %d and %d of a %d-byte journal (%v), want the older one a proper prefix of the whole", jOld, jNew, len(tail)-room, err)
	}
	if err := os.WriteFile(snapPath(dir, newest), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := newCoreEngine(t)
	deng2, err := Wrap(rec, o)
	if err != nil {
		t.Fatalf("recovery failed on corrupt newest snapshot: %v", err)
	}
	defer deng2.Close()
	st := deng2.Recovery()
	if st.SnapshotEpoch >= newest {
		t.Fatalf("recovery claims snapshot epoch %d, which is corrupt", st.SnapshotEpoch)
	}
	if st.CorruptSnapshots != 1 {
		t.Fatalf("CorruptSnapshots = %d, want 1 (the fallback must be surfaced, not silent)", st.CorruptSnapshots)
	}
	if got := marshalState(t, rec); !bytes.Equal(got, want) {
		t.Fatal("fallback recovery diverged from live state")
	}
	// The journal was cut back to the restored snapshot's tail.
	if cut, err := readWAL(journalPath(dir)); err != nil || cut.goodLen >= journal.goodLen || cut.tornBytes != 0 {
		t.Fatalf("journal after the fallback: %d bytes (torn %d, %v), want it cut below %d", cut.goodLen, cut.tornBytes, err, journal.goodLen)
	}
}

// TestCorruptSnapshotFallsBackOnFlippedByte: nothing in a snapshot's
// encoding is sure to catch a flipped bit inside a varint — a balance, a
// quantity, an item count decode to another state as readily as to an
// error — so the file carries a checksum, and a snapshot whose journal
// bytes are damaged cannot be joined at all. Either way recovery must
// fall back on the older epoch, say so, and land on the live digest.
func TestCorruptSnapshotFallsBackOnFlippedByte(t *testing.T) {
	stack := func() (amcast.SnapshotEngine, *store.Executor) {
		ex, err := store.NewExecutor(newCoreEngine(t), store.Config{Warehouse: 1}, false)
		if err != nil {
			t.Fatal(err)
		}
		return ex, ex
	}
	o := func(dir string) Options {
		return Options{Dir: dir, SnapshotEvery: 8, FsyncEvery: -1, KeepEpochs: true,
			Decode: func(data []byte) (amcast.Snapshot, error) {
				return store.UnmarshalSnapshot(data, core.UnmarshalSnapshot)
			}}
	}
	dir := t.TempDir()
	eng, live := stack()
	deng, err := Wrap(eng, o(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 30; i++ { // orders only: every one is in the journal, undelivered
		deng.OnEnvelope(orderTx(1, i, gtpcc.OrderLine{Item: int32(i), Supply: 1, Qty: 2}))
		deng.TakeDeliveries()
	}
	if err := deng.Close(); err != nil {
		t.Fatal(err)
	}
	_, snaps, err := scanEpochs(dir)
	if err != nil || len(snaps) < 2 {
		t.Fatalf("snapshots %v (%v), want at least two", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	flips := map[string]func(t *testing.T, img string){
		"inside cfg.Items": func(t *testing.T, img string) {
			// checksum ‖ J ‖ u32le n ‖ n bytes of engine body ‖ warehouse ‖ items
			file, err := os.ReadFile(snapPath(img, newest))
			if err != nil {
				t.Fatal(err)
			}
			at := snapHeaderSize + 4 + int(binary.LittleEndian.Uint32(file[snapHeaderSize:])) + 1
			if v, n := binary.Uvarint(file[at:]); v != gtpcc.NumItems || n != 1 {
				t.Fatalf("byte %d of the snapshot file is not the shard's item count", at)
			}
			file[at] ^= 0x80 >> 1 // still one byte, still a varint: 100 → 36
			if err := os.WriteFile(snapPath(img, newest), file, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"inside an order": func(t *testing.T, img string) {
			// The last journal record is the newest snapshot's instalment,
			// and ends with its order frame.
			journal, err := os.ReadFile(journalPath(img))
			if err != nil {
				t.Fatal(err)
			}
			journal[len(journal)-2] ^= 0x01
			if err := os.WriteFile(journalPath(img), journal, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, flip := range flips {
		t.Run(name, func(t *testing.T) {
			img := copyDir(t, dir)
			flip(t, img)
			eng, rec := stack()
			deng, err := Wrap(eng, o(img))
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer deng.Close()
			if st := deng.Recovery(); st.CorruptSnapshots != 1 || st.SnapshotEpoch != snaps[len(snaps)-2] {
				t.Fatalf("restored epoch %d skipping %d snapshots, want epoch %d skipping the one damaged", st.SnapshotEpoch, st.CorruptSnapshots, snaps[len(snaps)-2])
			}
			if rec.Digest() != live.Digest() {
				t.Fatal("fallback recovery diverged from the live digest")
			}
		})
	}
}

// TestCorruptOnlySnapshotFailsLoudly: without KeepEpochs, truncation
// already deleted every older snapshot and WAL epoch — when the one
// remaining snapshot does not decode there is nothing to fall back on,
// and recovery must fail instead of silently rebuilding from fresh
// state plus only the current WAL epoch (silent data loss).
func TestCorruptOnlySnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	deng, err := Wrap(newCoreEngine(t), opts(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	feed(deng, 1, 23)
	deng.Close()
	_, snaps, err := scanEpochs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("test premise broken: want exactly 1 retained snapshot, have %v", snaps)
	}
	if err := os.WriteFile(snapPath(dir, snaps[0]), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Wrap(newCoreEngine(t), opts(dir, 5)); err == nil {
		t.Fatal("recovery silently succeeded with the only snapshot corrupt")
	}
}

// FuzzWALRecover hammers the WAL reader with arbitrary bytes: it must
// never panic, must account for every byte (records + torn tail), and
// truncating to goodLen must yield a byte-stable scan (the recovery
// path truncates exactly there).
func FuzzWALRecover(f *testing.F) {
	var valid []byte
	for i := 0; i < 3; i++ {
		valid = appendWALRecord(valid, []byte(fmt.Sprintf("record-%d", i)))
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	corrupt := append([]byte(nil), valid...)
	corrupt[5] ^= 0xA5
	f.Add(corrupt)
	// journal.log shares the framing: fixed-width tail entries, one
	// record per snapshot, torn mid-record by a crash.
	var journal []byte
	for rec := 0; rec < 3; rec++ {
		var delta []byte
		for i := 0; i < 4; i++ {
			delta = binary.LittleEndian.AppendUint64(delta, uint64(amcast.NewMsgID(rec, uint64(i+1))))
		}
		journal = appendWALRecord(journal, delta)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-11])
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-00000000.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		scan, err := readWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if scan.goodLen+scan.tornBytes != int64(len(data)) {
			t.Fatalf("goodLen %d + torn %d != %d bytes", scan.goodLen, scan.tornBytes, len(data))
		}
		if scan.goodLen > int64(len(data)) || scan.goodLen < 0 {
			t.Fatalf("goodLen %d out of range", scan.goodLen)
		}
		// Truncating at goodLen (what openWALWriter does) must preserve
		// exactly the valid records and report a clean file.
		if err := os.WriteFile(path, data[:scan.goodLen], 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := readWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if again.tornBytes != 0 || len(again.records) != len(scan.records) {
			t.Fatalf("re-scan after truncation: %d records torn %d, want %d records torn 0",
				len(again.records), again.tornBytes, len(scan.records))
		}
		for i := range scan.records {
			if !bytes.Equal(scan.records[i], again.records[i]) {
				t.Fatalf("record %d changed across truncation", i)
			}
		}
	})
}
