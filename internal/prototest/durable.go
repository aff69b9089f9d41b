package prototest

import (
	"bytes"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/durable"
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
// Any divergence means the WAL framing, snapshot codec, or recovery
// path mishandles a crash artifact.
func RunDurableReplay(t *testing.T, cfg RandomConfig, decode func([]byte) (amcast.Snapshot, error), snapshotEvery int) {
	t.Helper()
	open := func(g amcast.GroupID, dir string) *durable.Engine {
		de, err := durable.Wrap(snapshotEngine(t, cfg.Factory(g)), durable.Options{
			Dir:           dir,
			SnapshotEvery: snapshotEvery,
			FsyncEvery:    -1,
			Decode:        decode,
		})
		if err != nil {
			t.Fatalf("prototest: durable backend of group %d in %s: %v", g, dir, err)
		}
		return de
	}
	dirs := make(map[amcast.GroupID]string, len(cfg.Groups))
	w := newWorld(t, cfg.Groups, func(g amcast.GroupID) amcast.Engine {
		dirs[g] = t.TempDir()
		return open(g, dirs[g])
	}, nil)
	w.keep = true
	w.simulate(cfg, false)

	recoverImage := func(g amcast.GroupID, dir string) (amcast.SnapshotEngine, durable.RecoveryStats) {
		de := open(g, dir)
		de.Close()
		return de.Inner(), de.Recovery()
	}
	// crashImage clones a group's directory — the kill -9 image a
	// variant mutates and recovers from, leaving the original for the
	// next variant.
	crashImage := func(g amcast.GroupID) string {
		dir := t.TempDir()
		if err := durable.CopyImage(dirs[g], dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	for _, g := range cfg.Groups {
		de := w.engines[g].(*durable.Engine)
		// Close before imaging: it waits for the persist job in flight, so
		// the copy is a finished directory and replay is bounded by the
		// last captured snapshot.
		if err := de.Close(); err != nil {
			t.Fatalf("prototest: durable backend of group %d: %v", g, err)
		}
		live := snapshotBytes(t, de.Inner().Snapshot())
		since := de.SinceSnapshot()

		// Clean kill -9 image: full state back, replay bounded by the
		// snapshot age.
		fresh, st := recoverImage(g, crashImage(g))
		if st.TornTailBytes != 0 {
			t.Fatalf("prototest: group %d clean image reported a torn tail of %d bytes", g, st.TornTailBytes)
		}
		if st.ReplayedEnvelopes != since {
			t.Fatalf("prototest: group %d replayed %d envelopes, want the %d since the last snapshot",
				g, st.ReplayedEnvelopes, since)
		}
		if !bytes.Equal(snapshotBytes(t, fresh.Snapshot()), live) {
			t.Fatalf("prototest: group %d clean recovery diverged from the live engine", g)
		}

		// Torn frame appended past the last complete record: discarded,
		// same state.
		dir := crashImage(g)
		if _, err := durable.TearTail(dir, nil); err != nil {
			t.Fatalf("prototest: tear tail of group %d: %v", g, err)
		}
		fresh, st = recoverImage(g, dir)
		if st.TornTailBytes == 0 {
			t.Fatalf("prototest: group %d torn tail injected but recovery discarded nothing", g)
		}
		if !bytes.Equal(snapshotBytes(t, fresh.Snapshot()), live) {
			t.Fatalf("prototest: group %d recovery after a torn tail diverged from the live engine", g)
		}

		// Last record truncated mid-frame: its input is lost with it, so
		// recovery lands exactly one input earlier — rebuilt here as the
		// reference by replaying the full input log minus that input.
		dir = crashImage(g)
		cut, err := durable.TruncateLastRecord(dir)
		if err != nil {
			t.Fatalf("prototest: truncate last record of group %d: %v", g, err)
		}
		if !cut {
			continue // the last input triggered a rotation; nothing in the current epoch to tear
		}
		fresh, st = recoverImage(g, dir)
		if st.TornTailBytes == 0 {
			t.Fatalf("prototest: group %d truncated record not reported as a torn tail", g)
		}
		ref := snapshotEngine(t, cfg.Factory(g))
		inputs, _, _ := w.log(g)
		for _, env := range inputs[:len(inputs)-1] {
			ref.OnEnvelope(env)
			ref.TakeDeliveries()
		}
		if !bytes.Equal(snapshotBytes(t, fresh.Snapshot()), snapshotBytes(t, ref.Snapshot())) {
			t.Fatalf("prototest: group %d recovery after mid-frame truncation diverged from the all-but-last reference", g)
		}
	}
}
