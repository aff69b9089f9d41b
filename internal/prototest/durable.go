package prototest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/durable"
	"flexcast/internal/sim"
)

// engineState fingerprints an engine as its canonical snapshot bytes.
func engineState(t *testing.T, eng amcast.SnapshotEngine) []byte {
	t.Helper()
	bs, ok := eng.Snapshot().(amcast.BinarySnapshot)
	if !ok {
		t.Fatalf("prototest: engine %T snapshot has no binary form", eng)
	}
	data, err := bs.MarshalBinary()
	if err != nil {
		t.Fatalf("prototest: marshal engine state: %v", err)
	}
	return data
}

// copyCrashImage clones a durable directory — the kill -9 image the
// recovery variants mutate and recover from, leaving the original
// untouched for the next variant.
func copyCrashImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// RunDurableReplay is RunSnapshotReplay's on-disk sibling: the random
// workload runs with every engine wrapped in the real durable backend
// (WAL appends, snapshot rotation on the given cadence), and at
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
	if cfg.MaxDst == 0 || cfg.MaxDst > len(cfg.Groups) {
		cfg.MaxDst = len(cfg.Groups)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := sim.New()
	root := t.TempDir()

	type durTap struct {
		de  *durable.Engine
		dir string
		log []amcast.Envelope
	}
	taps := make(map[amcast.GroupID]*durTap, len(cfg.Groups))

	lat := make(map[[2]amcast.NodeID]sim.Time)
	latency := func(from, to amcast.NodeID) sim.Time {
		key := [2]amcast.NodeID{from, to}
		l, ok := lat[key]
		if !ok {
			l = sim.Time(100 + rng.Intn(1900))
			lat[key] = l
		}
		return l
	}
	net := sim.NewNetwork(s, latency)
	for _, g := range cfg.Groups {
		g := g
		eng, ok := cfg.Factory(g).(amcast.SnapshotEngine)
		if !ok {
			t.Fatalf("prototest: engine for group %d does not implement amcast.SnapshotEngine", g)
		}
		dir := filepath.Join(root, fmt.Sprintf("group-%d", g))
		de, err := durable.Wrap(eng, durable.Options{
			Dir:           dir,
			SnapshotEvery: snapshotEvery,
			FsyncEvery:    -1,
			Decode:        decode,
		})
		if err != nil {
			t.Fatalf("prototest: durable wrap for group %d: %v", g, err)
		}
		tap := &durTap{de: de, dir: dir}
		taps[g] = tap
		net.Register(amcast.GroupNode(g), sim.HandlerFunc(func(env amcast.Envelope) {
			tap.log = append(tap.log, env)
			for _, out := range de.OnEnvelope(env) {
				net.Send(amcast.GroupNode(g), out.To, out.Env)
			}
			de.TakeDeliveries()
		}))
	}
	for c := 0; c < cfg.Clients; c++ {
		cid := amcast.ClientNode(c)
		net.Register(cid, sim.HandlerFunc(func(env amcast.Envelope) {}))
		for i := 0; i < cfg.Messages; i++ {
			m := cfg.message(c, i, cfg.MaxDst, rng)
			at := sim.Time(rng.Int63n(50_000))
			s.ScheduleAt(at, func() {
				for _, to := range cfg.Route(m) {
					net.Send(cid, to, amcast.Envelope{Kind: amcast.KindRequest, From: cid, Msg: m})
				}
			})
		}
	}
	s.Run()

	recoverImage := func(g amcast.GroupID, dir string) (amcast.SnapshotEngine, durable.RecoveryStats) {
		fresh, _ := cfg.Factory(g).(amcast.SnapshotEngine)
		de, err := durable.Wrap(fresh, durable.Options{
			Dir:           dir,
			SnapshotEvery: snapshotEvery,
			FsyncEvery:    -1,
			Decode:        decode,
		})
		if err != nil {
			t.Fatalf("prototest: recover group %d from %s: %v", g, dir, err)
		}
		st := de.Recovery()
		de.Close()
		return fresh, st
	}

	for _, g := range cfg.Groups {
		tap := taps[g]
		// Close before imaging: it waits for the persist job in flight, so
		// the copy is a finished directory and replay is bounded by the
		// last captured snapshot.
		if err := tap.de.Close(); err != nil {
			t.Fatalf("prototest: durable backend of group %d: %v", g, err)
		}
		live := engineState(t, tap.de.Inner())
		since := tap.de.SinceSnapshot()

		// Clean kill -9 image: full state back, replay bounded by the
		// snapshot age.
		fresh, st := recoverImage(g, copyCrashImage(t, tap.dir))
		if st.TornTailBytes != 0 {
			t.Fatalf("prototest: group %d clean image reported a torn tail of %d bytes", g, st.TornTailBytes)
		}
		if st.ReplayedEnvelopes != since {
			t.Fatalf("prototest: group %d replayed %d envelopes, want the %d since the last snapshot",
				g, st.ReplayedEnvelopes, since)
		}
		if !bytes.Equal(engineState(t, fresh), live) {
			t.Fatalf("prototest: group %d clean recovery diverged from the live engine", g)
		}

		// Torn frame appended past the last complete record: discarded,
		// same state.
		dir := copyCrashImage(t, tap.dir)
		if _, err := durable.TearTail(dir, nil); err != nil {
			t.Fatalf("prototest: tear tail of group %d: %v", g, err)
		}
		fresh, st = recoverImage(g, dir)
		if st.TornTailBytes == 0 {
			t.Fatalf("prototest: group %d torn tail injected but recovery discarded nothing", g)
		}
		if !bytes.Equal(engineState(t, fresh), live) {
			t.Fatalf("prototest: group %d recovery after a torn tail diverged from the live engine", g)
		}

		// Last record truncated mid-frame: its input is lost with it, so
		// recovery lands exactly one input earlier — rebuilt here as the
		// reference by replaying the full input log minus that input.
		dir = copyCrashImage(t, tap.dir)
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
		ref, _ := cfg.Factory(g).(amcast.SnapshotEngine)
		for _, env := range tap.log[:len(tap.log)-1] {
			ref.OnEnvelope(env)
			ref.TakeDeliveries()
		}
		if !bytes.Equal(engineState(t, fresh), engineState(t, ref)) {
			t.Fatalf("prototest: group %d recovery after mid-frame truncation diverged from the all-but-last reference", g)
		}
	}
}
