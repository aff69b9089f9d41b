package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/codec"
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
			rec := appendRecords(nil, []byte("unprocessed input never fully written"), false)
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

// inspect is Inspect of a directory no engine is writing to.
func inspect(t testing.TB, dir string) DirInfo {
	t.Helper()
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestSnapshotRotationTruncatesOldEpochs asserts the GC half of the
// design: once epoch e is sealed, the epochs below it are deleted — the
// WAL never accumulates the whole run.
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
	info := inspect(t, dir)
	if len(info.Epochs) != 2 || info.Epochs[1] != info.Epochs[0]+1 || info.SnapshotEpoch != info.Epochs[1] {
		t.Fatalf("after rotation: epochs %v with the newest snapshot opening epoch %d; want the sealed epoch and the open one behind it", info.Epochs, info.SnapshotEpoch)
	}
	if info.Epochs[1] < 8 {
		t.Fatalf("epoch %d after 42 inputs at cadence 5: rotation did not keep up", info.Epochs[1])
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
	if wals := inspect(t, dir).Epochs; len(wals) != 5 || wals[0] != 0 {
		t.Fatalf("KeepEpochs retained epochs %v, want 0 to 4", wals)
	}
}

// newestSnapshot returns the epoch file that ends in the newest whole
// snapshot under dir and the offset of the snapshot's first record in it.
func newestSnapshot(t *testing.T, dir string) (path string, off int64) {
	t.Helper()
	info := inspect(t, dir)
	if info.SnapshotEpoch == 0 {
		t.Fatalf("no snapshot among epochs %v", info.Epochs)
	}
	path = walPath(dir, info.SnapshotEpoch-1)
	scan, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, scan.goodLen
}

// flipSnapshotByte flips one byte of the newest snapshot's body, at
// offset at of it.
func flipSnapshotByte(t *testing.T, dir string, at int) {
	t.Helper()
	path, off := newestSnapshot(t, dir)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file[int(off)+walHeaderSize+snapJSize+at] ^= 0x40
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
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
	newest := inspect(t, dir)
	if newest.SnapshotEpoch < 2 {
		t.Fatalf("need ≥2 snapshots, the newest opens epoch %d", newest.SnapshotEpoch)
	}
	// The older snapshot's tail is a shorter prefix of the one journal.
	journal, err := readWAL(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	older, err := readWAL(walPath(dir, newest.SnapshotEpoch-2))
	if err != nil || older.snap == nil {
		t.Fatalf("epoch %d: no snapshot behind it (%v)", newest.SnapshotEpoch-2, err)
	}
	tail := 0
	for _, rec := range journal.records {
		tail += len(rec)
	}
	if jOld := int(binary.LittleEndian.Uint64(older.snap[0])); jOld >= newest.SnapshotTail || newest.SnapshotTail != tail {
		t.Fatalf("snapshot tails %d and %d of a %d-byte journal, want the older one a proper prefix of the whole", jOld, newest.SnapshotTail, tail)
	}
	flipSnapshotByte(t, dir, 0)
	rec := newCoreEngine(t)
	deng2, err := Wrap(rec, o)
	if err != nil {
		t.Fatalf("recovery failed on corrupt newest snapshot: %v", err)
	}
	defer deng2.Close()
	st := deng2.Recovery()
	if st.SnapshotEpoch != newest.SnapshotEpoch-1 {
		t.Fatalf("recovery restored the snapshot opening epoch %d, want the one before the corrupt one, %d", st.SnapshotEpoch, newest.SnapshotEpoch-1)
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
	newest := inspect(t, dir)
	if newest.SnapshotEpoch < 2 {
		t.Fatalf("the newest snapshot opens epoch %d, want at least two snapshots", newest.SnapshotEpoch)
	}
	flips := map[string]func(t *testing.T, img string){
		"inside cfg.Items": func(t *testing.T, img string) {
			// u32le n ‖ n bytes of engine body ‖ warehouse ‖ items
			body := newest.SnapshotBody
			at := 4 + int(binary.LittleEndian.Uint32(body)) + 1
			if v, n := binary.Uvarint(body[at:]); v != gtpcc.NumItems || n != 1 {
				t.Fatalf("byte %d of the snapshot body is not the shard's item count", at)
			}
			flipSnapshotByte(t, img, at) // still one byte, still a varint: 100 → 36
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
			if st := deng.Recovery(); st.CorruptSnapshots != 1 || st.SnapshotEpoch != newest.SnapshotEpoch-1 {
				t.Fatalf("restored epoch %d skipping %d snapshots, want epoch %d skipping the one damaged", st.SnapshotEpoch, st.CorruptSnapshots, newest.SnapshotEpoch-1)
			}
			if rec.Digest() != live.Digest() {
				t.Fatal("fallback recovery diverged from the live digest")
			}
		})
	}
}

// TestCorruptOnlySnapshotFailsLoudly: without KeepEpochs, truncation
// already deleted every older epoch — when the one remaining snapshot
// does not decode there is nothing to fall back on,
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
	if info := inspect(t, dir); len(info.Epochs) != 2 || info.SnapshotEpoch != info.Epochs[1] {
		t.Fatalf("test premise broken: want one sealed epoch and the open one, have %v with the snapshot opening %d", info.Epochs, info.SnapshotEpoch)
	}
	flipSnapshotByte(t, dir, 3)
	if _, err := Wrap(newCoreEngine(t), opts(dir, 5)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("recovery with the only snapshot corrupt: %v, want the checksum failure", err)
	}
}

// FuzzWALRecover hammers the record reader and the recovery above it
// with arbitrary bytes as epoch 0, the newest epoch or, with a valid
// epoch 1 behind it, an older one. The reader must never panic, must
// account for every byte of an unsealed file (records + torn tail), and
// truncating to goodLen must yield a byte-stable scan (the recovery path
// truncates exactly there). Recovery may refuse the directory; when it
// accepts it, closing and recovering again must find it clean.
func FuzzWALRecover(f *testing.F) {
	var valid []byte
	for i := uint64(1); i <= 3; i++ {
		valid = appendRecords(valid, codec.Marshal(reqEnv(i)), false)
	}
	snap := func(body string) []byte { return append(make([]byte, snapJSize), body...) }
	sealed := appendRecords(slices.Clone(valid), snap("state behind three inputs"), true)
	corrupt := slices.Clone(valid)
	corrupt[5] ^= 0xA5
	badSnap := slices.Clone(sealed)
	badSnap[len(badSnap)-1] ^= 1
	// journal.log shares the framing: fixed-width tail entries, one
	// record per snapshot, torn mid-record by a crash.
	var journal []byte
	for rec := 0; rec < 3; rec++ {
		var delta []byte
		for i := 0; i < 4; i++ {
			delta = binary.LittleEndian.AppendUint64(delta, uint64(amcast.NewMsgID(rec, uint64(i+1))))
		}
		journal = appendRecords(journal, delta, false)
	}
	for _, older := range []bool{false, true} {
		f.Add(valid, older)
		f.Add(valid[:len(valid)-3], older) // torn input: a hole when epoch 1 follows
		f.Add([]byte{}, older)
		f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}, older)
		f.Add(corrupt, older)
		f.Add(sealed, older)
		f.Add(sealed[:len(sealed)-5], older)                 // snapshot record cut short
		f.Add(sealed[:len(valid)+2], older)                  // … inside its header
		f.Add(badSnap, older)                                // … or failing its checksum
		f.Add(append(slices.Clone(sealed), valid...), older) // input behind a snapshot
		f.Add(journal, older)
		f.Add(journal[:len(journal)-11], older)
	}
	f.Fuzz(func(t *testing.T, data []byte, older bool) {
		dir := t.TempDir()
		path := walPath(dir, 0)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		scan, err := readWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if scan.goodLen < 0 || scan.goodLen > int64(len(data)) || !scan.sealed && scan.goodLen+scan.tornBytes != int64(len(data)) {
			t.Fatalf("goodLen %d, torn %d, sealed %v of %d bytes", scan.goodLen, scan.tornBytes, scan.sealed, len(data))
		}
		if scan.snap != nil && (!scan.sealed || scan.corrupt) || scan.sealed && scan.tornBytes != 0 {
			t.Fatalf("inconsistent scan: sealed %v, corrupt %v, torn %d, %d snapshot chunks", scan.sealed, scan.corrupt, scan.tornBytes, len(scan.snap))
		}
		// Truncating at goodLen (what recovery does) must preserve
		// exactly the valid records and report a clean, unsealed file.
		again := scanRecords(data[:scan.goodLen])
		if again.tornBytes != 0 || again.sealed || len(again.records) != len(scan.records) {
			t.Fatalf("re-scan after truncation: %d records torn %d sealed %v, want %d records torn 0",
				len(again.records), again.tornBytes, again.sealed, len(scan.records))
		}
		for i := range scan.records {
			if !bytes.Equal(scan.records[i], again.records[i]) {
				t.Fatalf("record %d changed across truncation", i)
			}
		}
		if older {
			if err := os.WriteFile(walPath(dir, 1), valid, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		o := Options{Dir: dir, SnapshotEvery: 2, FsyncEvery: -1, Decode: func(data []byte) (amcast.Snapshot, error) {
			return bigSnapshot(data), nil
		}}
		deng, err := Wrap(&bigSnapshotEngine{}, o)
		if err != nil {
			return
		}
		if hole := older && !scan.sealed && scan.tornBytes > 0; hole {
			t.Fatalf("recovery stepped over %d damaged bytes of epoch 0 into epoch 1", scan.tornBytes)
		}
		feed(deng, 100, 3)
		if err := deng.Close(); err != nil {
			t.Fatal(err)
		}
		deng, err = Wrap(&bigSnapshotEngine{}, o)
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if st := deng.Recovery(); st.TornTailBytes != 0 || st.CorruptSnapshots != 0 {
			t.Fatalf("second recovery: torn %d, corrupt snapshots %d", st.TornTailBytes, st.CorruptSnapshots)
		}
		deng.Close()
	})
}
