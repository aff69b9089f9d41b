package store

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/core"
	"flexcast/internal/durable"
	"flexcast/internal/gtpcc"
	"flexcast/internal/history"
	"flexcast/internal/overlay"
)

// churnExecutor is a mirrored executor over a one-group FlexCast engine:
// every request is delivered and executed on arrival, in input order.
func churnExecutor(t testing.TB) *Executor {
	t.Helper()
	eng := core.MustNew(core.Config{Group: 1, Overlay: overlay.MustCDAG([]amcast.GroupID{1})})
	ex, err := NewExecutor(eng, Config{Warehouse: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// churnScript is a stream of new-orders and deliveries at warehouse 1
// whose order queue grows, shrinks from the head, runs empty and is
// refilled: between two snapshots taken every few inputs the head moves
// past orders an earlier snapshot journaled (dead frames) and past orders
// no snapshot ever saw (gaps in the journaled ids).
func churnScript(seed int64, n int) []amcast.Envelope {
	rng := rand.New(rand.NewSource(seed))
	envs := make([]amcast.Envelope, n)
	for i := range envs {
		tx := gtpcc.Tx{Type: gtpcc.Delivery, Home: 1, PayloadSize: 40}
		// Bursts of orders, then bursts where deliveries keep up with them.
		if burst := i / 16 % 3; burst == 0 && i%8 != 7 || burst != 0 && i%2 == 0 {
			lines := make([]gtpcc.OrderLine, 1+rng.Intn(4))
			for j := range lines {
				lines[j] = gtpcc.OrderLine{Item: int32(rng.Intn(gtpcc.NumItems)), Supply: 1, Qty: int32(1 + rng.Intn(5))}
			}
			tx = gtpcc.Tx{Type: gtpcc.NewOrder, Home: 1, Customer: int32(rng.Intn(gtpcc.NumCustomers)),
				Items: len(lines), Lines: lines, PayloadSize: 64 + 12*len(lines)}
		}
		m := amcast.Message{ID: amcast.NewMsgID(0, uint64(i+1)), Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1}, Payload: gtpcc.EncodeTx(tx)}
		envs[i] = amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m}
	}
	return envs
}

func feedAll(eng amcast.Engine, envs []amcast.Envelope) []amcast.Delivery {
	var dels []amcast.Delivery
	for _, env := range envs {
		eng.OnEnvelope(env)
		dels = append(dels, eng.TakeDeliveries()...)
	}
	return dels
}

func marshalExec(t testing.TB, eng amcast.SnapshotEngine) []byte {
	t.Helper()
	data, err := eng.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOrderJournalContract plays the persister's part of the
// amcast.TailSnapshot contract by hand: a snapshot every few inputs,
// each split against the one before and its instalment appended to one
// journal. After every split the newest body joined with the journal,
// and an older body joined with the journal as it then stood, must
// decode to a snapshot that restores to the canonical bytes of the
// executor at that point — although the journal by then holds frames
// that are dead, partly dead, and ids it never held at all. Snapshots
// taken in between and never split (the chaos model's, AttachFollower's)
// must change nothing.
func TestOrderJournalContract(t *testing.T) {
	const every = 5
	script := churnScript(3, 400)
	ex := churnExecutor(t)
	type persisted struct {
		body  []byte
		j     int
		state []byte
	}
	var (
		journal   []byte
		prev      amcast.Snapshot // an interface, as the persister holds it: nil until the first split
		history   []persisted
		gaps      int
		deadHeads int
		busyHeads int
	)
	check := func(p persisted, journal []byte) {
		t.Helper()
		dec, err := decodeExecCore(amcast.JoinSnapshot(p.body, journal[:p.j]))
		if err != nil {
			t.Fatalf("body of input %d with %d journal bytes: %v", len(history)*every, p.j, err)
		}
		fresh := churnExecutor(t)
		if err := fresh.Restore(dec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalExec(t, fresh), p.state) {
			t.Fatalf("body of input %d with %d journal bytes restores to a different state", len(history)*every, p.j)
		}
	}
	for off := 0; off < len(script); off += every {
		feedAll(ex, script[off:off+every/2])
		ex.Snapshot() // taken and dropped
		feedAll(ex, script[off+every/2:off+every])
		snap := ex.Snapshot().(*execSnapshot)
		if prev != nil {
			s, p := snap.shard, prev.(*execSnapshot).shard
			if s.delivered > p.nextOrder {
				gaps++
			}
			if s.delivered > p.delivered && p.nextOrder > p.delivered {
				deadHeads++
				if s.nextOrder > s.delivered {
					busyHeads++
				}
			}
		}
		var body []byte
		var err error
		if body, journal, err = snap.AppendSplit(nil, journal, prev); err != nil {
			t.Fatal(err)
		}
		prev = snap
		history = append(history, persisted{body: body, j: len(journal), state: marshalExec(t, ex)})
		check(history[len(history)-1], journal)
		if n := len(history); n > 3 {
			check(history[n-3], journal)
		}
		if canon, _ := snap.MarshalBinary(); !bytes.Equal(canon, history[len(history)-1].state) {
			t.Fatalf("input %d: snapshot bytes depend on when the snapshot is marshalled", off+every)
		}
	}
	if gaps < 3 || deadHeads < 10 || busyHeads < 3 {
		t.Fatalf("script exercised %d gaps, %d dead journaled prefixes (%d before a non-empty queue): too few", gaps, deadHeads, busyHeads)
	}
	// The journal is not canonical, the snapshot is: dead weight is what
	// they differ by.
	last := history[len(history)-1]
	if len(last.body)+len(journal) <= len(last.state) {
		t.Fatalf("journal form %d+%d bytes, canonical form %d: no dead frames were carried", len(last.body), len(journal), len(last.state))
	}
	// A split against a snapshot that is ahead is refused, not papered over.
	first, err := decodeExecCore(amcast.JoinSnapshot(history[0].body, journal[:history[0].j]))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := first.(amcast.TailSnapshot).AppendSplit(nil, nil, prev); err == nil {
		t.Fatal("split against a later snapshot accepted")
	}
}

// TestOrderJournalSurvivesSnapshotAndWAL cuts the churn script after
// every prefix and continues it three ways — on the live executor, on
// one restored from the marshalled snapshot, and on one recovered from
// the durable backend, whose journal by then has dead frames and gaps —
// which must produce the same deliveries and the same canonical bytes.
func TestOrderJournalSurvivesSnapshotAndWAL(t *testing.T) {
	script := churnScript(7, 120)
	for cut := 0; cut <= len(script); cut += 3 {
		live := churnExecutor(t)
		feedAll(live, script[:cut])

		snap, err := decodeExecCore(marshalExec(t, live))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		restored := churnExecutor(t)
		if err := restored.Restore(snap); err != nil {
			t.Fatal(err)
		}

		opts := durable.Options{Dir: t.TempDir(), SnapshotEvery: 7, FsyncEvery: -1, Decode: decodeExecCore}
		de, err := durable.Wrap(churnExecutor(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		feedAll(de, script[:cut])
		if err := de.Close(); err != nil {
			t.Fatal(err)
		}
		recovered := churnExecutor(t)
		re, err := durable.Wrap(recovered, opts)
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}
		if got, want := marshalExec(t, recovered), marshalExec(t, live); !bytes.Equal(got, want) {
			t.Fatalf("cut %d: recovered executor differs from the live one", cut)
		}

		wantDels := feedAll(live, script[cut:])
		want := marshalExec(t, live)
		for name, eng := range map[string]amcast.SnapshotEngine{"restored": restored, "recovered": re} {
			if dels := feedAll(eng, script[cut:]); !reflect.DeepEqual(dels, wantDels) {
				t.Fatalf("cut %d: %s executor's deliveries diverged", cut, name)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		for name, ex := range map[string]*Executor{"restored": restored, "recovered": recovered} {
			if !bytes.Equal(marshalExec(t, ex), want) {
				t.Fatalf("cut %d: %s executor's final state differs from the live one's", cut, name)
			}
			if err := ex.CheckMirror(); err != nil {
				t.Fatalf("cut %d: %s executor: %v", cut, name, err)
			}
		}
	}
}

// TestSnapshotAliasesLogWhileExecutorRuns: a snapshot shares the order log
// with the running executor and is marshalled on the persister's
// goroutine, so marshal one from several goroutines while the executor
// churns its queue through deliveries and reallocations: same bytes
// every time, and nothing for the race detector to report.
func TestSnapshotAliasesLogWhileExecutorRuns(t *testing.T) {
	script := churnScript(13, 3000)
	ex := churnExecutor(t)
	feedAll(ex, script[:200])
	snap := ex.Snapshot().(amcast.BinarySnapshot)
	want, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got, err := snap.MarshalBinary(); err != nil || !bytes.Equal(got, want) {
					t.Errorf("marshal %d of a snapshot changed while the executor ran (%v)", i, err)
					return
				}
			}
		}()
	}
	feedAll(ex, script[200:])
	wg.Wait()
}

// rawEngineSnapshot is an engine snapshot of opaque bytes: the fuzz
// target's engine decoder, so that what is fuzzed is the store's codec.
type rawEngineSnapshot []byte

func (s rawEngineSnapshot) SnapshotGroup() amcast.GroupID  { return 1 }
func (s rawEngineSnapshot) MarshalBinary() ([]byte, error) { return s, nil }

func decodeExecRaw(data []byte) (amcast.Snapshot, error) {
	return UnmarshalSnapshot(data, func(eng []byte) (amcast.Snapshot, error) { return rawEngineSnapshot(eng), nil })
}

// journalForm returns an executor snapshot mid-script as body ‖ journal
// of three instalments, and the offsets in it of the journal and of each
// instalment's shard frame (past the engine piece and the frame count).
func journalForm(t testing.TB) (data []byte, journalAt int, frames []int) {
	t.Helper()
	script := churnScript(5, 60)
	ex := churnExecutor(t)
	var body, journal []byte
	var prev amcast.Snapshot
	for off := 0; off < len(script); off += 20 {
		feedAll(ex, script[off:off+20])
		snap := ex.Snapshot()
		start := len(journal)
		var err error
		if body, journal, err = snap.(amcast.TailSnapshot).AppendSplit(nil, journal, prev); err != nil {
			t.Fatal(err)
		}
		prev = snap
		frames = append(frames, start+4+int(binary.LittleEndian.Uint32(journal[start:]))+1)
	}
	for i := range frames {
		frames[i] += len(body)
	}
	return amcast.JoinSnapshot(body, journal), len(body), frames
}

// putUvarint overwrites the one-byte uvarint at off.
func putUvarint(t testing.TB, data []byte, off int, v uint64) []byte {
	t.Helper()
	if data[off] >= 0x80 || v >= 0x80 {
		t.Fatalf("uvarint at %d is not one byte", off)
	}
	out := bytes.Clone(data)
	out[off] = byte(v)
	return out
}

// badSnapshots are executor snapshots a recovery must refuse: each is a
// valid journal form with one field changed.
func badSnapshots(t testing.TB) map[string][]byte {
	t.Helper()
	data, journalAt, frames := journalForm(t)
	if _, err := decodeExecCore(data); err != nil {
		t.Fatalf("unmodified journal form: %v", err)
	}
	first := func(i int) uint64 { v, _ := binary.Uvarint(data[frames[i]:]); return v }
	count := func(i int) uint64 { v, _ := binary.Uvarint(data[frames[i]+1:]); return v }
	// The store section starts behind the engine body: warehouse, items,
	// customers, each one byte here.
	st := 4 + int(binary.LittleEndian.Uint32(data))
	bad := map[string][]byte{
		"frame starts one id late: an order is missing":       putUvarint(t, data, frames[2], first(2)+1),
		"frame starts one id early: overlaps the one before":  putUvarint(t, data, frames[2], first(2)-1),
		"frame runs past nextOrder":                           putUvarint(t, data, frames[2]+1, count(2)+1),
		"frame holds fewer orders than the window needs":      putUvarint(t, data, frames[2]+1, count(2)-1),
		"frame starts before the one before it":               putUvarint(t, data, frames[2], first(0)),
		"instalment of three frames":                          putUvarint(t, data, frames[0]-1, 3),
		"last instalment cut off":                             data[:frames[2]-1],
		"zero items":                                          putUvarint(t, data, st+1, 0),
		"fewer customers than the tables and the orders name": putUvarint(t, data, st+2, 3),
		"no journal at all":                                   data[:journalAt],
	}
	// An order of a customer the shard does not have: the first kept
	// order's first field, behind the frame's three header varints.
	r := codec.NewReader(data[frames[2]:])
	r.Uvarint()
	r.Uvarint()
	r.Uvarint()
	bad["order of an unknown customer"] = putUvarint(t, data, len(data)-r.Len(), gtpcc.NumCustomers)
	return bad
}

// notifExecutor is an executor over group 2 of a three-group FlexCast
// overlay that has accepted two NOTIFs about one message of groups 1 and
// 3, at epochs 2 and 4, the first carrying a two-node history: its engine
// body holds a history image and an accepted-notification log.
func notifExecutor(t testing.TB) (ex *Executor, id amcast.MsgID, hist *amcast.HistDelta) {
	t.Helper()
	eng := core.MustNew(core.Config{Group: 2, Overlay: overlay.MustCDAG([]amcast.GroupID{1, 2, 3})})
	ex, err := NewExecutor(eng, Config{Warehouse: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	id, other := amcast.NewMsgID(3, 77), amcast.NewMsgID(3, 78)
	dst := []amcast.GroupID{1, 3}
	hist = &amcast.HistDelta{
		Nodes: []amcast.HistNode{{ID: id, Dst: dst}, {ID: other, Dst: dst}},
		Edges: []amcast.HistEdge{{From: id, To: other}},
	}
	for _, epoch := range []uint64{2, 4} {
		ex.OnEnvelope(amcast.Envelope{Kind: amcast.KindNotif, From: amcast.GroupNode(1), CertEpoch: epoch, Hist: hist,
			Msg: amcast.Message{ID: id, Sender: amcast.ClientNode(3), Dst: dst}})
	}
	return ex, id, hist
}

// badEngineBodies are executor snapshots whose engine body a recovery
// must refuse: notifExecutor's with one byte changed or dropped, found by
// what the intact body must contain.
func badEngineBodies(t testing.TB) map[string][]byte {
	t.Helper()
	ex, id, hist := notifExecutor(t)
	data := marshalExec(t, ex)
	if _, err := decodeExecCore(data); err != nil {
		t.Fatalf("unmodified snapshot: %v", err)
	}
	put := func(epoch byte) []byte { return append(binary.AppendUvarint(nil, uint64(id)), 1, epoch) }
	log := bytes.Index(data, append(put(2), put(4)...))
	h := history.New()
	h.Merge(hist)
	image := h.AppendBinary(nil)
	img := bytes.Index(data, image)
	// The image ends: one predecessor, slot 0; no free slots; nextSeq 3;
	// three log entries, 2 bytes + 1 + 1 + 3·3 from its end.
	pred := img + len(image) - 13
	if log < 0 || img < 0 || !bytes.Equal(data[pred-1:pred+4], []byte{1, 0, 0, 3, 3}) {
		t.Fatalf("accepted-notification log at %d, history image at %d of the snapshot: not where expected", log, img)
	}
	with := func(at int, b byte) []byte {
		out := bytes.Clone(data)
		out[at] = b
		return out
	}
	first, second := log+len(put(2))-1, log+2*len(put(2))-1
	cut := append(bytes.Clone(data[:img+len(image)-1]), data[img+len(image):]...)
	binary.LittleEndian.PutUint32(cut, binary.LittleEndian.Uint32(data)-1)
	return map[string][]byte{
		"put of epoch 0": with(first, 0),
		"put that repeats the epoch it supersedes": with(second, 2),
		"put below the epoch it supersedes":        with(second, 1),
		"history image with a self-edge":           with(pred, 1),
		"history image cut short":                  cut,
	}
}

// TestUnmarshalSnapshotRejectsBadEngineBodies: the store's decoder hands
// the engine body to the engine's, whose refusals are its own.
func TestUnmarshalSnapshotRejectsBadEngineBodies(t *testing.T) {
	for name, data := range badEngineBodies(t) {
		if _, err := decodeExecCore(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestUnmarshalSnapshotRejectsBadFrames: the journal-form decoder has the
// strictness of the other codecs — ids missing, doubled, out of order or
// beyond the log are errors, as are tables an order or a transaction
// would index out of.
func TestUnmarshalSnapshotRejectsBadFrames(t *testing.T) {
	for name, data := range badSnapshots(t) {
		if _, err := decodeExecCore(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzUnmarshalSnapshot: whatever decodes must satisfy the shard's
// invariants — a contiguous window of orders of known customers, tables
// of the configured sizes — and must marshal to a canonical form that
// decodes to itself. Whatever also decodes with the FlexCast engine's
// decoder behind the store's must do the same there, and restore.
func FuzzUnmarshalSnapshot(f *testing.F) {
	ex := churnExecutor(f)
	f.Add(marshalExec(f, ex))
	feedAll(ex, churnScript(9, 50))
	f.Add(marshalExec(f, ex))
	data, _, _ := journalForm(f)
	f.Add(data)
	for _, bad := range badSnapshots(f) {
		f.Add(bad)
	}
	notif, _, _ := notifExecutor(f)
	f.Add(marshalExec(f, notif))
	for _, bad := range badEngineBodies(f) {
		f.Add(bad)
	}
	// One executor per group of an overlay to restore into, built once: a
	// shard's tables are the expensive part.
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2, 3})
	restoreInto := make(map[amcast.GroupID]*Executor)
	for _, g := range ov.Order() {
		ex, err := NewExecutor(core.MustNew(core.Config{Group: g, Overlay: ov}), Config{Warehouse: g}, false)
		if err != nil {
			f.Fatal(err)
		}
		restoreInto[g] = ex
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeExecRaw(data)
		if err != nil {
			return
		}
		if full, err := decodeExecCore(data); err == nil {
			canon, _ := full.(amcast.BinarySnapshot).MarshalBinary()
			again, err := decodeExecCore(canon)
			if err != nil {
				t.Fatalf("canonical form of a snapshot accepted with its engine body does not decode: %v", err)
			}
			if recanon, _ := again.(amcast.BinarySnapshot).MarshalBinary(); !bytes.Equal(recanon, canon) {
				t.Fatal("decode → marshal is not a fixed point with the engine body decoded")
			}
			if ex := restoreInto[full.SnapshotGroup()]; ex != nil {
				if err := ex.Restore(full); err != nil {
					t.Fatalf("accepted snapshot does not restore: %v", err)
				}
			}
		}
		canon, err := snap.(amcast.BinarySnapshot).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeExecRaw(canon)
		if err != nil {
			t.Fatalf("canonical form of an accepted snapshot does not decode: %v", err)
		}
		if recanon, _ := again.(amcast.BinarySnapshot).MarshalBinary(); !bytes.Equal(recanon, canon) {
			t.Fatal("decode → marshal is not a fixed point")
		}
		s := snap.(*execSnapshot)
		for _, sh := range []*Shard{s.shard, s.mirror} {
			if sh == nil {
				continue
			}
			if sh.cfg.Items <= 0 || len(sh.stockQty) != sh.cfg.Items || sh.cfg.Customers <= 0 || len(sh.balance) != sh.cfg.Customers {
				t.Fatalf("accepted %d items and %d customers over tables of %d and %d", sh.cfg.Items, sh.cfg.Customers, len(sh.stockQty), len(sh.balance))
			}
			if sh.delivered+uint64(len(sh.pending)) != sh.nextOrder {
				t.Fatalf("accepted %d orders for the window [%d, %d)", len(sh.pending), sh.delivered, sh.nextOrder)
			}
			for i, o := range sh.pending {
				if o.cust < 0 || int(o.cust) >= sh.cfg.Customers {
					t.Fatalf("accepted an order of customer %d at position %d of the window [%d, %d)", o.cust, i, sh.delivered, sh.nextOrder)
				}
			}
			// What a delivery indexes with must be in range.
			sh.Apply(deliver(1, sh.applied, sh.cfg.Warehouse, gtpcc.Tx{Type: gtpcc.Delivery, Home: sh.cfg.Warehouse, PayloadSize: 40}), nil)
		}
	})
}
