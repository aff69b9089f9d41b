package durable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/gtpcc"
	"flexcast/internal/hierarchical"
	"flexcast/internal/overlay"
	"flexcast/internal/skeen"
	"flexcast/internal/store"
)

// crashStack is one engine stack the crash test persists: a factory for
// one group's engine, the matching snapshot decoder, the protocol's
// client entry route, and the group whose inputs are persisted — the
// inputs being what that group consumes of a gTPC-C stream run through
// all groups (recordInputs) unless the stack brings its own.
type crashStack struct {
	name   string
	mk     func(g amcast.GroupID) amcast.SnapshotEngine
	decode func([]byte) (amcast.Snapshot, error)
	route  func(m amcast.Message) []amcast.GroupID
	target amcast.GroupID
	inputs func(t *testing.T, cadence int) []amcast.Envelope
}

var crashGroups = []amcast.GroupID{1, 2, 3, 4}

func crashStacks() []crashStack {
	ov := overlay.MustCDAG(crashGroups)
	tree := overlay.MustTree(1, map[amcast.GroupID][]amcast.GroupID{1: crashGroups[1:]})
	executing := func(mk func(g amcast.GroupID) amcast.SnapshotEngine) func(g amcast.GroupID) amcast.SnapshotEngine {
		return func(g amcast.GroupID) amcast.SnapshotEngine {
			ex, err := store.NewExecutor(mk(g), store.Config{Warehouse: g, Seed: 3}, false)
			if err != nil {
				panic(err)
			}
			return ex
		}
	}
	over := func(dec func([]byte) (amcast.Snapshot, error)) func([]byte) (amcast.Snapshot, error) {
		return func(data []byte) (amcast.Snapshot, error) { return store.UnmarshalSnapshot(data, dec) }
	}
	return []crashStack{
		{
			name: "flexcast+store",
			mk: executing(func(g amcast.GroupID) amcast.SnapshotEngine {
				return core.MustNew(core.Config{Group: g, Overlay: ov})
			}),
			decode: over(core.UnmarshalSnapshot),
			route:  func(m amcast.Message) []amcast.GroupID { return []amcast.GroupID{ov.Lca(m.Dst)} },
			target: 3,
		},
		{
			// The same stack under a stream made for the order journal: see
			// orderChurn.
			name: "flexcast+store/order churn",
			mk: executing(func(g amcast.GroupID) amcast.SnapshotEngine {
				return core.MustNew(core.Config{Group: g, Overlay: ov})
			}),
			decode: over(core.UnmarshalSnapshot),
			target: 3,
			inputs: func(t *testing.T, cadence int) []amcast.Envelope { return orderChurn(t, 3, 12, cadence) },
		},
		{
			// The same stack behind a lagging flush ack: see laggingFlushInputs.
			name: "flexcast+store/flush holds",
			mk: executing(func(g amcast.GroupID) amcast.SnapshotEngine {
				return core.MustNew(core.Config{Group: g, Overlay: ov})
			}),
			decode: over(core.UnmarshalSnapshot),
			target: 4,
			inputs: func(t *testing.T, cadence int) []amcast.Envelope { return laggingFlushInputs(4, 600) },
		},
		{
			name: "skeen+store",
			mk: executing(func(g amcast.GroupID) amcast.SnapshotEngine {
				e, err := skeen.New(skeen.Config{Group: g, Groups: crashGroups})
				if err != nil {
					panic(err)
				}
				return e
			}),
			decode: over(skeen.UnmarshalSnapshot),
			route:  func(m amcast.Message) []amcast.GroupID { return m.Dst },
			target: 3,
		},
		{
			name: "hierarchical",
			mk: func(g amcast.GroupID) amcast.SnapshotEngine {
				e, err := hierarchical.New(hierarchical.Config{Group: g, Tree: tree})
				if err != nil {
					panic(err)
				}
				return e
			},
			decode: hierarchical.UnmarshalSnapshot,
			route:  func(m amcast.Message) []amcast.GroupID { return []amcast.GroupID{tree.Lca(m.Dst)} },
			target: 1,
		},
	}
}

// recordInputs runs a seeded gTPC-C stream through plain engines of the
// stack on a FIFO network, a few hops per injected transaction so that
// messages overlap in flight, and returns every envelope the target
// group consumed, in order — the input the durable engine under test is
// then fed on its own.
func recordInputs(s crashStack, txs int) []amcast.Envelope {
	engines := make(map[amcast.GroupID]amcast.SnapshotEngine)
	gens := make([]*gtpcc.Gen, len(crashGroups))
	for i, home := range crashGroups {
		engines[home] = s.mk(home)
		var nearest []amcast.GroupID
		for _, g := range crashGroups {
			if g != home {
				nearest = append(nearest, g)
			}
		}
		gens[i] = gtpcc.MustNew(gtpcc.Config{Home: home, Nearest: nearest, Locality: 0.4}, rand.New(rand.NewSource(int64(11+i))))
	}
	type hop struct {
		to  amcast.GroupID
		env amcast.Envelope
	}
	var queue []hop
	var inputs []amcast.Envelope
	step := func() {
		h := queue[0]
		queue = queue[1:]
		if h.to == s.target {
			inputs = append(inputs, h.env)
		}
		eng := engines[h.to]
		for _, out := range eng.OnEnvelope(h.env) {
			if !out.To.IsClient() {
				queue = append(queue, hop{out.To.Group(), out.Env})
			}
		}
		eng.TakeDeliveries()
	}
	for i := 0; i < txs; i++ {
		tx := gens[i%len(gens)].Next()
		m := amcast.Message{ID: amcast.NewMsgID(0, uint64(i+1)), Sender: amcast.ClientNode(0), Dst: tx.Dst, Payload: gtpcc.EncodeTx(tx)}
		for _, at := range s.route(m) {
			queue = append(queue, hop{at, amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m}})
		}
		for n := 0; n < 2 && len(queue) > 0; n++ {
			step()
		}
	}
	for len(queue) > 0 {
		step()
	}
	return inputs
}

// laggingFlushInputs is group g's input, g ranked last, under a gTPC-C
// stream of txs transactions with a flush to every group after every
// 10th, run through plain FlexCast engines on a network whose link from
// the second-ranked group to g lags: the flush acks of the groups ranked
// between reach g first, and what follows them waits on the flush until
// the lagging ack arrives (DESIGN.md §4 deviation 10).
func laggingFlushInputs(g amcast.GroupID, txs int) []amcast.Envelope {
	ov := overlay.MustCDAG(crashGroups)
	engines := make(map[amcast.GroupID]*core.Engine)
	gens := make([]*gtpcc.Gen, len(crashGroups))
	for i, home := range crashGroups {
		engines[home] = core.MustNew(core.Config{Group: home, Overlay: ov})
		var nearest []amcast.GroupID
		for _, o := range crashGroups {
			if o != home {
				nearest = append(nearest, o)
			}
		}
		gens[i] = gtpcc.MustNew(gtpcc.Config{Home: home, Nearest: nearest, Locality: 0.4}, rand.New(rand.NewSource(int64(31+i))))
	}
	type hop struct {
		to  amcast.GroupID
		env amcast.Envelope
	}
	lagging := ov.GroupAt(1)
	var queue, slow []hop
	var inputs []amcast.Envelope
	steps := 0
	step := func() {
		if steps++; len(slow) > 0 && (steps%20 == 0 || len(queue) == 0) {
			queue, slow = append(queue, slow[0]), slow[1:]
		}
		h := queue[0]
		queue = queue[1:]
		if h.to == g {
			inputs = append(inputs, h.env)
		}
		for _, out := range engines[h.to].OnEnvelope(h.env) {
			switch {
			case out.To.IsClient():
			case h.to == lagging && out.To.Group() == g:
				slow = append(slow, hop{g, out.Env})
			default:
				queue = append(queue, hop{out.To.Group(), out.Env})
			}
		}
		engines[h.to].TakeDeliveries()
	}
	for i := 0; i < txs; i++ {
		tx := gens[i%len(gens)].Next()
		m := amcast.Message{ID: amcast.NewMsgID(0, uint64(i+1)), Sender: amcast.ClientNode(0), Dst: tx.Dst, Payload: gtpcc.EncodeTx(tx)}
		if i%10 == 9 {
			m = amcast.Message{ID: amcast.NewMsgID(1, uint64(i+1)), Sender: amcast.ClientNode(1), Dst: crashGroups, Flags: amcast.FlagFlush}
		}
		queue = append(queue, hop{ov.Lca(m.Dst), amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m}})
		for n := 0; n < 2 && len(queue) > 0; n++ {
			step()
		}
	}
	for len(queue)+len(slow) > 0 {
		step()
	}
	return inputs
}

// orderTx wraps a new-order of the given lines, or with none a delivery,
// at home warehouse g as the i-th client request addressed to g alone:
// a FlexCast or one-group engine delivers it on arrival.
func orderTx(g amcast.GroupID, i uint64, lines ...gtpcc.OrderLine) amcast.Envelope {
	tx := gtpcc.Tx{Type: gtpcc.Delivery, Home: g, PayloadSize: 40}
	if len(lines) > 0 {
		tx = gtpcc.Tx{Type: gtpcc.NewOrder, Home: g, Customer: int32(i % gtpcc.NumCustomers), Items: len(lines), Lines: lines, PayloadSize: 64 + 12*len(lines)}
	}
	m := amcast.Message{ID: amcast.NewMsgID(0, i), Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{g}, Payload: gtpcc.EncodeTx(tx)}
	return amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m}
}

// orderChurn is an input stream for group g, one cadence of inputs per
// window, that moves the store's order queue the ways its journal has
// to survive. Windows come in fours: the queue grows by a cadence of
// orders; two deliveries pop its head, journaled one window earlier,
// while it keeps growing (a dead prefix before a non-empty queue);
// deliveries drain it, then every order is delivered by the transaction
// behind it (orders no snapshot ever holds: a gap in the journaled ids);
// it grows again. The queue is modelled alongside, so that the test
// fails here, not vaguely later, if the stream stops doing that.
func orderChurn(t *testing.T, g amcast.GroupID, windows, cadence int) []amcast.Envelope {
	t.Helper()
	var envs []amcast.Envelope
	var queued, delivered, next int // the model: next - delivered == queued
	order := func() {
		i := uint64(len(envs) + 1)
		envs = append(envs, orderTx(g, i, gtpcc.OrderLine{Item: int32(i % gtpcc.NumItems), Supply: g, Qty: int32(1 + i%5)}))
		queued, next = queued+1, next+1
	}
	deliver := func() {
		envs = append(envs, orderTx(g, uint64(len(envs)+1)))
		n := min(queued, 10)
		queued, delivered = queued-n, delivered+n
	}
	deadHeads, gaps := 0, 0
	for w := 0; w < windows; w++ {
		end, nextBefore, deliveredBefore := len(envs)+cadence, next, delivered
		switch w % 4 {
		case 1:
			deliver()
			deliver()
		case 2:
			for queued > 0 {
				deliver()
			}
			for len(envs)+3 <= end {
				order()
				deliver()
			}
		}
		for len(envs) < end {
			order()
		}
		if delivered > deliveredBefore && queued > 0 && nextBefore > deliveredBefore {
			deadHeads++
		}
		if delivered > nextBefore {
			gaps++
		}
	}
	if deadHeads < 2 || gaps < 2 {
		t.Fatalf("order churn of %d windows: %d dead journaled prefixes, %d gaps", windows, deadHeads, gaps)
	}
	return envs
}

// feedBatches pushes inputs through eng in batches of size batch.
func feedBatches(eng amcast.SnapshotEngine, inputs []amcast.Envelope, batch int) {
	for len(inputs) > 0 {
		n := min(batch, len(inputs))
		amcast.BatchStep(eng, inputs[:n])
		eng.TakeDeliveries()
		inputs = inputs[n:]
	}
}

// copyDir copies a durable directory into a fresh crash image.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := CopyImage(src, dst); err != nil {
		t.Fatal(err)
	}
	return dst
}

// checkNames fails when dir holds anything but WAL epochs, the journal
// and the format tag Wrap wrote: no step of a persist job creates
// another name, not even for a moment — there is nothing to rename and
// nothing to sweep.
func checkNames(t *testing.T, dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Error(err)
	}
	for _, ent := range ents {
		var e uint64
		if n, _ := fmt.Sscanf(ent.Name(), "wal-%08d.log", &e); n != 1 && ent.Name() != "journal.log" && ent.Name() != formatFile {
			t.Errorf("%s holds %q", dir, ent.Name())
		}
	}
}

// TestCrashAtEveryPersistStep enumerates the crash points of a persist
// job instead of sampling them: every job of a run parks after the same
// step while input keeps arriving, the directory is copied as it then
// stands — the kill -9 image, not drained — and the image must recover
// to exactly the state of a reference engine fed the same input prefix,
// replaying at most two cadences and a batch. Each image is recovered
// again with its journal damaged (cut mid-record while the newest delta
// is not yet needed, a torn record appended otherwise) and, while what
// the snapshot record supersedes is still there, with that record cut
// short — the crash inside the step rather than behind it. With the job
// still parked, input then runs on through the checkpoints that append
// deltas behind the unfinished snapshot, never into one that would
// snapshot again: right behind the first delta the image is taken as it
// stands and with that delta torn at the WAL's tail; a batch later, with
// the delta failing its checksum in the middle of the WAL; and right
// behind a second delta, if the rule allows one, with the first failing
// its checksum in the middle of the chain. The recovered engine then
// finishes the run and recovers once more, which fails unless the first
// recovery cut the journal back to the restored snapshot's J. Parking
// after the seal is the crash between seal and remove: the sealed epoch
// and everything it supersedes are both on disk. Every stack's engine
// writes deltas — Skeen's and the hierarchical engine's hold their whole
// state — so every stack takes the images behind them too.
func TestCrashAtEveryPersistStep(t *testing.T) {
	middles := 0 // chains of two with the first delta damaged, over all stacks
	const cadence, batch = 24, 4
	for _, s := range crashStacks() {
		var inputs []amcast.Envelope
		if s.inputs != nil {
			inputs = s.inputs(t, cadence)
		} else {
			inputs = recordInputs(s, 900)
		}
		if len(inputs) < 8*cadence {
			t.Fatalf("%s: only %d inputs recorded for group %d", s.name, len(inputs), s.target)
		}
		ref := s.mk(s.target)
		feedBatches(ref, inputs, batch)
		final := marshalState(t, ref)
		if dref, ok := ref.(amcast.DeltaEngine); !ok || dref.Mark() == nil {
			t.Fatalf("%s: the engine writes no deltas", s.name)
		}
		o := func(dir string) Options {
			return Options{Dir: dir, SnapshotEvery: cadence, FsyncEvery: -1, Decode: s.decode}
		}
		for step := persistStep(0); step < numPersistSteps; step++ {
			t.Run(fmt.Sprintf("%s/%s", s.name, persistStepNames[step]), func(t *testing.T) {
				dir := t.TempDir()
				de, err := Wrap(s.mk(s.target), o(dir))
				if err != nil {
					t.Fatal(err)
				}
				parked, release := make(chan struct{}), make(chan struct{})
				var ran []persistStep // by all jobs so far
				de.p.hook = func(at persistStep) error {
					ran = append(ran, at)
					checkNames(t, dir)
					if at == step {
						parked <- struct{}{}
						<-release
					}
					return nil
				}
				prefix := s.mk(s.target) // the reference, fed in lockstep
				off := 0
				feed := func() {
					n := min(batch, len(inputs)-off)
					feedBatches(de, inputs[off:off+n], batch)
					feedBatches(prefix, inputs[off:off+n], batch)
					off += n
				}
				images, behind := 0, 0
				// check recovers a copy of the directory, damaged, and the
				// recovered engine finishes the run and recovers again.
				check := func(damage string) RecoveryStats {
					img := copyDir(t, dir)
					want := marshalState(t, prefix)
					// A snapshot is usable from the moment it is whole.
					visible := de.epoch - 1
					if step >= stepSnapshotAppend {
						visible = de.epoch
					}
					switch damage {
					case "journal":
						damageJournal(t, img, step < stepSnapshotAppend)
					case "snapshot":
						tearSnapshot(t, img)
						visible--
					case "torn delta":
						tearCheckpoint(t, img, -1, false)
					case "corrupt delta":
						tearCheckpoint(t, img, 0, true)
					}
					rec := s.mk(s.target)
					rde, err := Wrap(rec, o(img))
					if err != nil {
						t.Fatalf("image %d (damaged: %q): %v", images, damage, err)
					}
					st := rde.Recovery()
					if st.ReplayedEnvelopes > 2*cadence+batch {
						t.Fatalf("image %d (damaged: %q): replayed %d envelopes, bound is %d", images, damage, st.ReplayedEnvelopes, 2*cadence+batch)
					}
					if st.SnapshotEpoch != visible || st.CorruptSnapshots != 0 {
						t.Fatalf("image %d (damaged: %q): restored snapshot epoch %d skipping %d, want epoch %d skipping none",
							images, damage, st.SnapshotEpoch, st.CorruptSnapshots, visible)
					}
					if damage != "corrupt delta" && st.CorruptCheckpoints != 0 {
						t.Fatalf("image %d (damaged: %q): %d undamaged deltas did not apply", images, damage, st.CorruptCheckpoints)
					}
					if got := marshalState(t, rec); !bytes.Equal(got, want) {
						t.Fatalf("image %d (damaged: %q): recovered state differs from the reference at input %d", images, damage, off)
					}
					// The recovered engine carries on and recovers again.
					feedBatches(rde, inputs[off:], batch)
					if err := rde.Close(); err != nil {
						t.Fatal(err)
					}
					again := s.mk(s.target)
					ade, err := Wrap(again, o(img))
					if err != nil {
						t.Fatalf("image %d (damaged: %q): second recovery: %v", images, damage, err)
					}
					ade.Close()
					if got := marshalState(t, again); !bytes.Equal(got, final) {
						t.Fatalf("image %d (damaged: %q): state after finishing the run on the recovered engine differs", images, damage)
					}
					checkNames(t, img)
					return st
				}
				for off < len(inputs) {
					epoch := de.epoch
					feed()
					if de.epoch == epoch {
						continue
					}
					// A job started and is parked after step. Input keeps
					// arriving, up to the brink of the next checkpoint, and
					// a snapshot nobody persists is taken on the way (the chaos
					// model's, a follower's): what the next job journals and
					// the next delta holds are measured from the last
					// checkpoint, not from it.
					<-parked
					de.Snapshot()
					for off < len(inputs) && de.sinceSnap+batch < cadence {
						feed()
					}
					damages := []string{"", "journal"}
					if step == stepSnapshotAppend || step == stepSeal {
						// Until the remove step the older epochs are there to
						// fall back on.
						damages = append(damages, "snapshot")
					}
					for _, damage := range damages {
						check(damage)
					}
					// Deltas behind the unfinished snapshot: on through the
					// checkpoints that append one, and never into one that
					// snapshots, which would wait for the parked job.
					toDelta := func() bool {
						for off < len(inputs) {
							crossing := de.sinceSnap+min(batch, len(inputs)-off) >= cadence
							if crossing && (de.mark == nil || de.deltaBytes > de.bodyLen) {
								return false
							}
							feed()
							if crossing {
								return true
							}
						}
						return false
					}
					if toDelta() {
						if st := check(""); st.Checkpoints == 0 {
							t.Fatalf("image %d: no delta applied behind the snapshot", images)
						}
						check("torn delta")
						if off < len(inputs) {
							feed()
							if st := check("corrupt delta"); st.CorruptCheckpoints != 1 {
								t.Fatalf("image %d: %d deltas stepped over, want the damaged one", images, st.CorruptCheckpoints)
							}
						}
						behind++
						if toDelta() {
							if st := check("corrupt delta"); st.CorruptCheckpoints != 1 || st.Checkpoints == 0 {
								t.Fatalf("image %d: %d deltas applied, %d stepped over; want the damaged one stepped over and the one behind it applied",
									images, st.Checkpoints, st.CorruptCheckpoints)
							}
							middles++
						}
					}
					images++
					release <- struct{}{}
				}
				if err := de.Close(); err != nil {
					t.Fatal(err)
				}
				// One image per snapshot: a stack that writes deltas
				// snapshots every few checkpoints.
				if images < 5 {
					t.Fatalf("only %d crash images taken", images)
				}
				if behind == 0 {
					t.Fatal("no snapshot had a delta behind it while its job was parked")
				}
				// A job is the five steps, in order, once: two of them fsync
				// (the journal, the sealed epoch) and none renames.
				for i, at := range ran {
					if at != persistStep(i%int(numPersistSteps)) {
						t.Fatalf("step %d of the jobs was %q", i, persistStepNames[at])
					}
				}
				if len(ran) != images*int(numPersistSteps) {
					t.Fatalf("%d jobs ran %d steps", images, len(ran))
				}
			})
		}
	}
	if middles == 0 {
		t.Fatal("no chain of two deltas behind a parked job: the damaged delta was never in the middle of one")
	}
}

// tearCheckpoint damages checkpoint record i (negative: from the end) of
// the newest WAL epoch under dir: cuts the file in the middle of it, or
// flips a byte of its delta.
func tearCheckpoint(t *testing.T, dir string, i int, flip bool) {
	t.Helper()
	wals, err := scanEpochs(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := walPath(dir, wals[len(wals)-1])
	scan, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for _, rec := range scan.records {
		if rec.checkpoint {
			ends = append(ends, rec.end)
		}
	}
	if i < 0 {
		i += len(ends)
	}
	if i < 0 || i >= len(ends) {
		t.Fatalf("no checkpoint %d among the %d of %s", i, len(ends), path)
	}
	end := ends[i]
	if !flip {
		if err := os.Truncate(path, end-3); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[end-2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// damageJournal cuts the journal's last record short (cut) or appends
// the first half of a record to it, as a crash mid-append would.
func damageJournal(t *testing.T, dir string, cut bool) {
	t.Helper()
	path := journalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cut && len(data) > 3 {
		data = data[:len(data)-3]
	} else {
		rec := appendRecords(nil, bytes.Repeat([]byte{0xAB}, 64), false)
		data = append(data, rec[:len(rec)/2]...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// tearSnapshot cuts the newest snapshot short, two thirds into its
// first record: what a kill -9 inside the job's write(2) leaves.
func tearSnapshot(t *testing.T, dir string) {
	t.Helper()
	path, off := newestSnapshot(t, dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, off+(st.Size()-off)*2/3); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryRefusesHoles: every input of an epoch is written before the
// next epoch exists, so an older epoch ending in a damaged input record
// has lost input the newer ones build on — recovery must fail and name
// it, not replay across the gap. A damaged snapshot record behind an
// older epoch's inputs is different: cut short, it is what a crash inside
// the persist job's write leaves, and recovery falls back without
// comment; failing its checksum, it falls back and says so.
func TestRecoveryRefusesHoles(t *testing.T) {
	dir := t.TempDir()
	o := opts(dir, 6)
	o.KeepEpochs = true
	live := newCoreEngine(t)
	deng, err := Wrap(live, o)
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoints every 6 inputs alternate between a snapshot and a delta
	// (see TestSnapshotRotationTruncatesOldEpochs): epochs 0, 1 and 2
	// sealed, epoch 2 with a delta halfway, two inputs in epoch 3.
	feed(deng, 1, 32)
	if err := deng.Close(); err != nil {
		t.Fatal(err)
	}
	want := marshalState(t, live)
	sealed, err := readWAL(walPath(dir, 2))
	if err != nil || sealed.snap == nil {
		t.Fatalf("epoch 2: no snapshot behind its inputs (%v)", err)
	}
	lastInput := sealed.goodLen - int64(len(sealed.records[len(sealed.records)-1].payload))/2
	cases := []struct {
		name   string
		damage func(file []byte) []byte
		// refused names the epoch when recovery must fail; otherwise it
		// restores the snapshot opening epoch restored, replays the inputs
		// since, and counts corrupt snapshots.
		refused           string
		restored, replays uint64
		corrupt           int
	}{
		{name: "untouched", damage: func(f []byte) []byte { return f }, restored: 3, replays: 2},
		{name: "snapshot record cut short", damage: func(f []byte) []byte { return f[:len(f)-9] }, restored: 2, replays: 8},
		{name: "snapshot record cut inside its header", damage: func(f []byte) []byte { return f[:sealed.goodLen+5] }, restored: 2, replays: 8},
		{name: "snapshot record failing its checksum", damage: func(f []byte) []byte { f[len(f)-9] ^= 1; return f }, restored: 2, replays: 8, corrupt: 1},
		{name: "input record cut short", damage: func(f []byte) []byte { return f[:lastInput] }, refused: "epoch 2"},
		{name: "input record failing its checksum", damage: func(f []byte) []byte { f[lastInput] ^= 1; return f }, refused: "epoch 2"},
		{name: "input record cut inside its header", damage: func(f []byte) []byte {
			return f[:sealed.goodLen-int64(len(sealed.records[len(sealed.records)-1].payload))-2]
		}, refused: "epoch 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			img := copyDir(t, dir)
			file, err := os.ReadFile(walPath(img, 2))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath(img, 2), c.damage(file), 0o644); err != nil {
				t.Fatal(err)
			}
			o := o
			o.Dir = img
			rec := newCoreEngine(t)
			rde, err := Wrap(rec, o)
			if c.refused != "" {
				if err == nil || !strings.Contains(err.Error(), c.refused) || !strings.Contains(err.Error(), "hole") {
					t.Fatalf("Wrap = %v, want it to refuse the hole in %s", err, c.refused)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer rde.Close()
			if st := rde.Recovery(); st.SnapshotEpoch != c.restored || uint64(st.ReplayedEnvelopes) != c.replays || st.CorruptSnapshots != c.corrupt || st.TornTailBytes != 0 {
				t.Fatalf("recovery %+v, want epoch %d restored, %d envelopes replayed, %d corrupt snapshots", st, c.restored, c.replays, c.corrupt)
			}
			if !bytes.Equal(marshalState(t, rec), want) {
				t.Fatal("recovered state differs")
			}
		})
	}
}

// TestEpochNotSyncedBeforePredecessorSealed: while the job sealing epoch
// e has not fsynced it, appends to epoch e+1 go through but its fsync
// waits; and when the seal fails, the fsync fails with it instead of
// making a later epoch durable behind one that is not.
func TestEpochNotSyncedBeforePredecessorSealed(t *testing.T) {
	o := func(t *testing.T) Options {
		return Options{Dir: t.TempDir(), SnapshotEvery: 4, FsyncEvery: -1, Decode: core.UnmarshalSnapshot}
	}
	t.Run("blocked seal", func(t *testing.T) {
		deng, err := Wrap(newCoreEngine(t), o(t))
		if err != nil {
			t.Fatal(err)
		}
		parked, release := make(chan struct{}), make(chan struct{})
		deng.p.hook = func(at persistStep) error {
			if at == stepSnapshotAppend { // the next step is the seal
				parked <- struct{}{}
				<-release
			}
			return nil
		}
		feed(deng, 1, 4)
		<-parked
		feed(deng, 5, 3) // appends to epoch 1 do not wait
		if deng.epoch != 1 || deng.sinceSnap != 3 || deng.Err() != nil {
			t.Fatalf("epoch %d, %d inputs since the snapshot, err %v", deng.epoch, deng.sinceSnap, deng.Err())
		}
		synced := make(chan error)
		go func() { synced <- deng.w.sync() }()
		select {
		case err := <-synced:
			t.Fatalf("epoch 1 fsynced (%v) while epoch 0 was not sealed", err)
		case <-time.After(50 * time.Millisecond):
		}
		release <- struct{}{}
		if err := <-synced; err != nil {
			t.Fatal(err)
		}
		if err := deng.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("failed seal", func(t *testing.T) {
		opts := o(t)
		live := newCoreEngine(t)
		deng, err := Wrap(live, opts)
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("injected failure before the seal")
		deng.p.hook = func(at persistStep) error {
			if at == stepJournalSync {
				return boom
			}
			return nil
		}
		feed(deng, 1, 6)
		if err := deng.w.sync(); !errors.Is(err, boom) {
			t.Fatalf("fsync of epoch 1 behind a failed seal = %v, want the job's failure", err)
		}
		if err := deng.Sync(); !errors.Is(err, boom) || !errors.Is(deng.Err(), boom) {
			t.Fatalf("Sync = %v, Err = %v, want the injected failure latched", err, deng.Err())
		}
		feed(deng, 7, 10) // the engine keeps running; nothing more is logged
		if err := deng.Close(); !errors.Is(err, boom) {
			t.Fatalf("Close = %v, want the latched failure", err)
		}
		// Inputs up to the failure were logged, the unsealed epoch kept: the
		// directory recovers to the state at the failure.
		rec := newCoreEngine(t)
		rde, err := Wrap(rec, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer rde.Close()
		ref := newCoreEngine(t)
		feed(ref, 1, 6)
		if st := rde.Recovery(); st.SnapshotEpoch != 0 || st.ReplayedEnvelopes != 6 || !bytes.Equal(marshalState(t, rec), marshalState(t, ref)) {
			t.Fatalf("recovery %+v: want all six logged inputs replayed onto a fresh engine, to the reference state", st)
		}
	})
}

// bigSnapshotEngine is a stub whose snapshot body exceeds maxWALRecord.
type bigSnapshotEngine struct{ body []byte }

type bigSnapshot []byte

func (s bigSnapshot) SnapshotGroup() amcast.GroupID  { return 1 }
func (s bigSnapshot) MarshalBinary() ([]byte, error) { return s, nil }
func (s bigSnapshot) AppendSplit(body, tail []byte, _ amcast.Snapshot) ([]byte, []byte, error) {
	return append(body, s...), tail, nil
}

func (e *bigSnapshotEngine) Group() amcast.GroupID                      { return 1 }
func (e *bigSnapshotEngine) OnEnvelope(amcast.Envelope) []amcast.Output { return nil }
func (e *bigSnapshotEngine) TakeDeliveries() []amcast.Delivery          { return nil }
func (e *bigSnapshotEngine) Snapshot() amcast.Snapshot                  { return bigSnapshot(e.body) }
func (e *bigSnapshotEngine) Restore(s amcast.Snapshot) error {
	e.body = s.(bigSnapshot)
	return nil
}

// TestSnapshotLargerThanWALRecordLimit: a snapshot is written as chunks
// of at most recordChunk bytes, so a body beyond maxWALRecord — the
// reader's corruption threshold for one record — persists and recovers.
func TestSnapshotLargerThanWALRecordLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a 64 MiB snapshot")
	}
	dir := t.TempDir()
	body := make([]byte, maxWALRecord+4096)
	for i := range body {
		body[i] = byte(i * 31)
	}
	o := Options{Dir: dir, SnapshotEvery: 2, FsyncEvery: -1, Decode: func(data []byte) (amcast.Snapshot, error) {
		return bigSnapshot(data), nil
	}}
	deng, err := Wrap(&bigSnapshotEngine{body: body}, o)
	if err != nil {
		t.Fatal(err)
	}
	feed(deng, 1, 3)
	if err := deng.Close(); err != nil {
		t.Fatal(err)
	}
	rec := &bigSnapshotEngine{}
	deng2, err := Wrap(rec, o)
	if err != nil {
		t.Fatal(err)
	}
	defer deng2.Close()
	if st := deng2.Recovery(); st.SnapshotEpoch != 1 || st.ReplayedEnvelopes != 1 {
		t.Fatalf("recovered from epoch %d replaying %d, want epoch 1 replaying 1", st.SnapshotEpoch, st.ReplayedEnvelopes)
	}
	if !bytes.Equal(rec.body, body) {
		t.Fatal("large snapshot body did not round-trip")
	}
}

// cadenceLoad is what cadencePoint measures: an engine stack and the
// input stream it is fed, one envelope per call.
type cadenceLoad struct {
	eng    amcast.SnapshotEngine
	decode func([]byte) (amcast.Snapshot, error)
	next   func() amcast.Envelope
}

// tombstoneLoad is a one-group FlexCast engine delivering every request
// on arrival: its delivery-tombstone log grows by one per input.
func tombstoneLoad(tb testing.TB) cadenceLoad {
	ov, err := overlay.NewCDAG([]amcast.GroupID{1})
	if err != nil {
		tb.Fatal(err)
	}
	i := uint64(0)
	return cadenceLoad{
		eng:    core.MustNew(core.Config{Group: 1, Overlay: ov}),
		decode: core.UnmarshalSnapshot,
		next:   func() amcast.Envelope { i++; return reqEnv(i) },
	}
}

// historyLoad is group 1 of a two-group FlexCast overlay: its first nodes
// inputs are addressed to both groups, delivered on arrival at their lca
// and kept in the history; the rest are addressed to group 1 alone and
// never enter it, so every cadence point from then on captures a history
// of exactly that many nodes.
func historyLoad(tb testing.TB, nodes int) cadenceLoad {
	i := uint64(0)
	return cadenceLoad{
		eng:    core.MustNew(core.Config{Group: 1, Overlay: overlay.MustCDAG([]amcast.GroupID{1, 2})}),
		decode: core.UnmarshalSnapshot,
		next: func() amcast.Envelope {
			i++
			env := reqEnv(i)
			if i <= uint64(nodes) {
				env.Msg.Dst = []amcast.GroupID{1, 2}
			}
			return env
		},
	}
}

// orderLoad is a mirrored store executor over that engine. Its first
// pending inputs are new-orders, leaving that many undelivered; from then
// on ten new-orders alternate with one delivery of ten, which holds the
// queue at that length while its head and tail both move.
func orderLoad(tb testing.TB, pending int) cadenceLoad {
	l := tombstoneLoad(tb)
	ex, err := store.NewExecutor(l.eng, store.Config{Warehouse: 1}, true)
	if err != nil {
		tb.Fatal(err)
	}
	engDecode := l.decode
	i := uint64(0)
	return cadenceLoad{
		eng:    ex,
		decode: func(data []byte) (amcast.Snapshot, error) { return store.UnmarshalSnapshot(data, engDecode) },
		next: func() amcast.Envelope {
			i++
			if i > uint64(pending) && (i-uint64(pending))%11 == 0 {
				return orderTx(1, i)
			}
			return orderTx(1, i,
				gtpcc.OrderLine{Item: int32(i % gtpcc.NumItems), Supply: 1, Qty: 3},
				gtpcc.OrderLine{Item: int32((i + 7) % gtpcc.NumItems), Supply: 1, Qty: 1})
		},
	}
}

// cadenceMeter drives a load through a durable engine one cadence point
// at a time.
type cadenceMeter struct {
	tb   testing.TB
	load cadenceLoad
	dir  string
	deng *Engine
}

// meterCadence wraps a load that has consumed warm inputs.
func meterCadence(tb testing.TB, load cadenceLoad, warm int) *cadenceMeter {
	m := &cadenceMeter{tb: tb, load: load, dir: tb.TempDir()}
	deng, err := Wrap(load.eng, Options{Dir: m.dir, SnapshotEvery: meterCadenceLen, FsyncEvery: -1, Decode: load.decode})
	if err != nil {
		tb.Fatal(err)
	}
	m.deng = deng
	m.feed(warm - warm%meterCadenceLen)
	if err := deng.Sync(); err != nil {
		tb.Fatal(err)
	}
	return m
}

const meterCadenceLen = 256

func (m *cadenceMeter) feed(n int) {
	for ; n > 0; n-- {
		m.deng.OnEnvelope(m.load.next())
		m.deng.TakeDeliveries()
	}
}

// point feeds one cadence of inputs and returns the engine-goroutine
// stall of the cadence point that ends it and the bytes the persist job
// wrote for it: a snapshot body behind the epoch it seals and its tail's
// instalment to the journal.
func (m *cadenceMeter) point() (stall time.Duration, written int64) {
	journalBytes := func() int64 {
		st, err := os.Stat(journalPath(m.dir))
		if err != nil {
			m.tb.Fatal(err)
		}
		return st.Size()
	}
	before := journalBytes()
	m.feed(meterCadenceLen - 1)
	m.deng.OnEnvelope(m.load.next())
	start := time.Now()
	m.deng.TakeDeliveries()
	stall = time.Since(start)
	if err := m.deng.Sync(); err != nil {
		m.tb.Fatal(err)
	}
	return stall, int64(len(inspect(m.tb, m.dir).SnapshotBody)) + journalBytes() - before
}

// cadencePoint measures 8 cadence points of a load that has consumed
// warm inputs: the least engine-goroutine stall and the mean bytes
// written per point.
func cadencePoint(tb testing.TB, load cadenceLoad, warm int) (stall time.Duration, written int64) {
	m := meterCadence(tb, load, warm)
	defer m.deng.Close()
	const points = 8
	stall = time.Hour
	for p := 0; p < points; p++ {
		st, w := m.point()
		stall, written = min(stall, st), written+w
	}
	return stall, written / points
}

// cadencePoints measures the cadence points of a small and a big load
// interleaved, one point of each per round, so that whatever else the
// machine runs meanwhile (other test packages) falls on both alike; each
// stall is the least of its rounds, each byte count the mean.
func cadencePoints(tb testing.TB, small, big cadenceLoad, warmSmall, warmBig int) (smallStall, bigStall time.Duration, smallBytes, bigBytes int64) {
	ms, mb := meterCadence(tb, small, warmSmall), meterCadence(tb, big, warmBig)
	defer ms.deng.Close()
	defer mb.deng.Close()
	const rounds = 24
	smallStall, bigStall = time.Hour, time.Hour
	for r := 0; r < rounds; r++ {
		st, w := ms.point()
		smallStall, smallBytes = min(smallStall, st), smallBytes+w
		st, w = mb.point()
		bigStall, bigBytes = min(bigStall, st), bigBytes+w
	}
	return smallStall, bigStall, smallBytes / rounds, bigBytes / rounds
}

// checkCadenceCostFlat fails when what a cadence point costs — the engine
// goroutine's stall and the bytes written for it — grew from the small
// state to the big one.
func checkCadenceCostFlat(t *testing.T, what string, smallStall, bigStall time.Duration, smallBytes, bigBytes int64) {
	t.Helper()
	if float64(bigBytes) > 1.5*float64(smallBytes) {
		t.Errorf("bytes written per cadence point grew from %d to %d with the %s", smallBytes, bigBytes, what)
	}
	// The stall is a few hundred microseconds either way; the floor keeps
	// scheduler noise from failing a comparison of two tiny numbers.
	if limit := max(3*smallStall/2, 500*time.Microsecond); bigStall > limit {
		t.Errorf("engine-goroutine stall per cadence point grew from %v to %v with the %s", smallStall, bigStall, what)
	}
}

// TestSnapshotCostIndependentOfTombstones: what a cadence point costs
// must not grow with the number of messages ever delivered.
func TestSnapshotCostIndependentOfTombstones(t *testing.T) {
	if testing.Short() {
		t.Skip("delivers 200k messages")
	}
	smallStall, bigStall, smallBytes, bigBytes := cadencePoints(t, tombstoneLoad(t), tombstoneLoad(t), 2_000, 200_000)
	t.Logf("2k deliveries: stall %v, %d B per cadence point; 200k deliveries: stall %v, %d B", smallStall, smallBytes, bigStall, bigBytes)
	checkCadenceCostFlat(t, "tombstone count", smallStall, bigStall, smallBytes, bigBytes)
}

// TestSnapshotCostIndependentOfPendingOrders: nor with the number of
// orders waiting for delivery — the store's queue is captured by prefix
// and journaled once per order, like the tombstones.
func TestSnapshotCostIndependentOfPendingOrders(t *testing.T) {
	if testing.Short() {
		t.Skip("queues 100k orders")
	}
	smallStall, bigStall, smallBytes, bigBytes := cadencePoints(t, orderLoad(t, 1_000), orderLoad(t, 100_000), 1_000, 100_000)
	t.Logf("1k undelivered orders: stall %v, %d B per cadence point; 100k: stall %v, %d B", smallStall, smallBytes, bigStall, bigBytes)
	checkCadenceCostFlat(t, "order queue", smallStall, bigStall, smallBytes, bigBytes)
}

// BenchmarkDurableCadencePoint reports the engine-goroutine stall of a
// cadence point at two tombstone counts, at two order-queue lengths and
// with a history of the size a hot group holds between flushes.
func BenchmarkDurableCadencePoint(b *testing.B) {
	report := func(b *testing.B, load func() cadenceLoad, warm int) {
		for i := 0; i < b.N; i++ {
			stall, written := cadencePoint(b, load(), warm)
			b.ReportMetric(float64(stall.Nanoseconds()), "stall-ns/point")
			b.ReportMetric(float64(written), "B/point")
		}
	}
	for _, delivered := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("tombstones=%d", delivered), func(b *testing.B) {
			report(b, func() cadenceLoad { return tombstoneLoad(b) }, delivered)
		})
	}
	for _, pending := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("orders=%d", pending), func(b *testing.B) {
			report(b, func() cadenceLoad { return orderLoad(b, pending) }, pending)
		})
	}
	b.Run("history=1000", func(b *testing.B) {
		report(b, func() cadenceLoad { return historyLoad(b, 1000) }, 1024)
	})
}

// snapshotDir persists load, after warm inputs, as one snapshot with
// nothing behind it: the first cadence point of a fresh directory
// snapshots. Recovering the directory restores that snapshot and replays
// nothing.
func snapshotDir(tb testing.TB, load cadenceLoad, warm int) string {
	for ; warm > 0; warm-- {
		load.eng.OnEnvelope(load.next())
		load.eng.TakeDeliveries()
	}
	dir := tb.TempDir()
	deng, err := Wrap(load.eng, Options{Dir: dir, SnapshotEvery: 1, FsyncEvery: -1, Decode: load.decode})
	if err != nil {
		tb.Fatal(err)
	}
	deng.OnEnvelope(load.next())
	deng.TakeDeliveries()
	if err := deng.Close(); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// readCounter counts the runs of an executor's reader that recovering
// it takes: its own (ApplyDelta), Restore's, and Options.Decode's through
// decode.
type readCounter struct {
	*store.Executor
	reads int
}

func (c *readCounter) ApplyDelta(record []byte) error {
	c.reads++
	return c.Executor.ApplyDelta(record)
}

func (c *readCounter) Restore(s amcast.Snapshot) error {
	c.reads++
	return c.Executor.Restore(s)
}

func (c *readCounter) decode(load cadenceLoad) func([]byte) (amcast.Snapshot, error) {
	return func(data []byte) (amcast.Snapshot, error) { c.reads++; return load.decode(data) }
}

// recoverSnapshotDir recovers dir into a fresh executor of orderLoad's
// shape and returns it, its reads and what recovery reports.
func recoverSnapshotDir(tb testing.TB, dir string) (*readCounter, RecoveryStats) {
	load := orderLoad(tb, 0)
	c := &readCounter{Executor: load.eng.(*store.Executor)}
	deng, err := Wrap(c, Options{Dir: dir, SnapshotEvery: 1, FsyncEvery: -1, Decode: c.decode(load)})
	if err != nil {
		tb.Fatal(err)
	}
	st := deng.Recovery()
	if err := deng.Close(); err != nil {
		tb.Fatal(err)
	}
	if st.SnapshotEpoch != 1 || st.ReplayedEnvelopes != 0 || st.Checkpoints != 0 {
		tb.Fatalf("recovered from epoch %d with %d envelopes and %d checkpoints, want the snapshot behind epoch 0 alone", st.SnapshotEpoch, st.ReplayedEnvelopes, st.Checkpoints)
	}
	return c, st
}

// TestRecoverySnapshotReadOnce: restoring an executor snapshot runs the
// engine's reader once — not a decode into a value and a second read
// when the value is restored — and reaches the live state to the byte.
func TestRecoverySnapshotReadOnce(t *testing.T) {
	live := orderLoad(t, 500)
	dir := snapshotDir(t, live, 2_000)
	rec, st := recoverSnapshotDir(t, dir)
	if rec.reads != 1 {
		t.Fatalf("recovering one snapshot ran the reader %d times, want 1", rec.reads)
	}
	want, err := live.eng.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered state differs from live state (%d vs %d bytes)", len(got), len(want))
	}
	t.Logf("%d-byte snapshot recovered in %v", st.SnapshotBytes, st.Elapsed)
}

// BenchmarkRecoverSnapshot reports the recovery of a mirrored executor
// snapshot after 200 000 deliveries with 1 000 orders undelivered:
// reading the directory, joining the journal and restoring.
func BenchmarkRecoverSnapshot(b *testing.B) {
	dir := snapshotDir(b, orderLoad(b, 1_000), 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := recoverSnapshotDir(b, dir)
		b.ReportMetric(float64(st.SnapshotBytes), "snapshot-B")
	}
}

var walAppendSink []amcast.Output

// BenchmarkWALAppend appends one 64-envelope gTPC-C batch per iteration
// through the engine's input path (the wrapped engine does nothing).
func BenchmarkWALAppend(b *testing.B) {
	gen := gtpcc.MustNew(gtpcc.Config{Home: 1, Nearest: []amcast.GroupID{2, 3}, Locality: 0.9}, rand.New(rand.NewSource(1)))
	envs := make([]amcast.Envelope, 64)
	for i := range envs {
		tx := gen.Next()
		envs[i] = amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(0), Msg: amcast.Message{
			ID: amcast.NewMsgID(0, uint64(i+1)), Sender: amcast.ClientNode(0), Dst: tx.Dst, Payload: gtpcc.EncodeTx(tx),
		}}
	}
	deng, err := Wrap(&bigSnapshotEngine{}, Options{Dir: b.TempDir(), SnapshotEvery: -1, FsyncEvery: -1,
		Decode: func(data []byte) (amcast.Snapshot, error) { return bigSnapshot(data), nil }})
	if err != nil {
		b.Fatal(err)
	}
	defer deng.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walAppendSink = deng.BatchStep(envs)
	}
}
