package prototest

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/durable"
	"flexcast/internal/simhost"
)

// RunDurableReplay is RunSnapshotReplay's on-disk sibling: the random
// workload runs with every engine wrapped in the real durable backend
// (WAL appends, snapshot rotation on the given cadence; a stepped node
// appends each input as a batch of one, as production does), and at
// quiescence each group's directory — the exact image a kill -9 would
// leave — is recovered into fresh engines under three crash shapes:
//
//   - clean: the recovered state must equal the live engine's byte for
//     byte, with the replay length bounded by the snapshot age;
//   - torn appended frame (durable.TearTail): a partial record after
//     the last complete one must be discarded, same state;
//   - last record truncated mid-frame (durable.TruncateLastRecord): the
//     final input is lost with the torn record, so recovery must stop
//     cleanly at the state before it — not fail, not misparse.
//
// Each image recovers on a fresh engine through durable.Recover, with
// its audits: torn tail discarded exactly when there is one, replay
// within the cadence (for the clean and torn images, exactly the inputs
// since the last checkpoint), state byte-equal to what the image must
// hold. Any divergence means the WAL framing, snapshot codec, or
// recovery path mishandles a crash artifact.
func RunDurableReplay(t *testing.T, cfg RandomConfig, decode func([]byte) (amcast.Snapshot, error), snapshotEvery int) {
	t.Helper()
	w := newWorld(t, cfg.Groups, cfg.Factory, simhost.Config{Keep: true, SnapshotEvery: snapshotEvery, Decode: decode})
	for _, g := range cfg.Groups {
		if err := w.Persist(g, t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	w.simulate(cfg, false)

	for _, g := range cfg.Groups {
		live, err := w.Crash(g, false)
		if err != nil {
			t.Fatal(err)
		}
		// shape copies the group's kill -9 image for one crash shape to
		// mutate and recover from, leaving the original for the next.
		shape := func() *durable.Image {
			img := *live
			img.Dir = t.TempDir()
			if err := durable.CopyImage(live.Dir, img.Dir); err != nil {
				t.Fatal(err)
			}
			return &img
		}
		recoverImage := func(name string, img *durable.Image) {
			de, err := durable.Recover(cfg.Factory(g).(amcast.SnapshotEngine), img, durable.Options{SnapshotEvery: snapshotEvery, FsyncEvery: -1, Decode: decode})
			if err != nil {
				t.Fatalf("prototest: %s: %v", name, err)
			}
			de.Close()
		}

		// Clean image: full state back, replaying exactly the inputs since
		// the last checkpoint.
		recoverImage("clean image", shape())

		// Torn frame appended past the last complete record: discarded,
		// same state.
		torn := shape()
		if _, err := durable.TearTail(torn.Dir, nil); err != nil {
			t.Fatalf("prototest: tear tail of group %d: %v", g, err)
		}
		torn.Torn = true
		recoverImage("torn tail", torn)

		// Last record truncated mid-frame: its input is lost with it, so
		// recovery lands exactly one input earlier, rebuilt here as the
		// reference by replaying the full input log minus that input.
		cut := shape()
		ok, err := durable.TruncateLastRecord(cut.Dir)
		if err != nil {
			t.Fatalf("prototest: truncate last record of group %d: %v", g, err)
		}
		if !ok {
			continue // the last input triggered a rotation; nothing in the current epoch to tear
		}
		ref := cfg.Factory(g).(amcast.SnapshotEngine)
		inputs, _, _ := w.log(g)
		for _, env := range inputs[:len(inputs)-1] {
			ref.OnEnvelope(env)
			ref.TakeDeliveries()
		}
		cut.State, cut.Since, cut.Torn = snapshotBytes(t, ref.Snapshot()), -1, true
		recoverImage("truncated record", cut)
	}
}
