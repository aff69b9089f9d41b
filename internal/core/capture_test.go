package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
)

func marshalSnap(t *testing.T, s amcast.Snapshot) []byte {
	t.Helper()
	data, err := s.(amcast.BinarySnapshot).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// captureChecked is an engine that audits its own capture behind every
// drained input of a prototest run.
type captureChecked struct {
	*Engine
	t *testing.T
}

func (c *captureChecked) TakeDeliveries() []amcast.Delivery {
	dels := c.Engine.TakeDeliveries()
	snap := c.capture()
	if !bytes.Equal(snap.hst, c.hst.AppendBinary(nil)) {
		c.t.Fatalf("group %d: the captured history image is not the live history's encoding", c.g)
	}
	fresh := MustNew(c.cfg)
	if err := fresh.Restore(snap); err != nil {
		c.t.Fatalf("group %d: %v", c.g, err)
	}
	if !bytes.Equal(marshalSnap(c.t, fresh.Snapshot()), marshalSnap(c.t, snap)) {
		c.t.Fatalf("group %d: Restore(Snapshot()) then Snapshot() marshals to different bytes", c.g)
	}
	return dels
}

// TestCaptureIsEncoding: at every cut of a random run — which goes on to
// restore one of the snapshots and replay the rest — what capture holds
// of the history is the live history's encoding, and restoring the
// snapshot gives an engine whose own snapshot marshals to the same bytes.
func TestCaptureIsEncoding(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3, 4, 5}
	ov := overlay.MustCDAG(groups)
	for seed := int64(1); seed <= 3; seed++ {
		prototest.RunSnapshotReplay(t, prototest.RandomConfig{
			Groups:   groups,
			Clients:  3,
			Messages: 12,
			Route: func(m amcast.Message) []amcast.NodeID {
				return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
			},
			Factory: func(g amcast.GroupID) amcast.Engine {
				return &captureChecked{MustNew(Config{Group: g, Overlay: ov}), t}
			},
			Seed:   seed,
			Jitter: 3000,
		}, 9)
	}
}

// notifEnv is notifier's NOTIF about message id, which is addressed to
// groups 1 and 3 — not to the group 2 engine the tests below feed it to.
func notifEnv(id amcast.MsgID, notifier amcast.GroupID, epoch uint64, hist *amcast.HistDelta) amcast.Envelope {
	return amcast.Envelope{Kind: amcast.KindNotif, From: amcast.GroupNode(notifier), CertEpoch: epoch, Hist: hist,
		Msg: amcast.Message{ID: id, Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1, 3}}}
}

// TestNotifDoneLogMatchesModel drives random NOTIFs — fresh, duplicate,
// superseding and stale epochs — into an engine and holds its accepted-
// notification table to a map model after every one: the index, the log
// replayed into a map, and the table of an engine restored from the
// decoded snapshot, which must also go on accepting like the original.
func TestNotifDoneLogMatchesModel(t *testing.T) {
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2, 3})
	cfg := Config{Group: 2, Overlay: ov}
	type key struct {
		id       amcast.MsgID
		notifier amcast.GroupID
	}
	table := func(e *Engine) map[key]uint64 {
		m := make(map[key]uint64)
		for id, done := range e.notifDone {
			for _, d := range done {
				m[key{id, d.g}] = d.v
			}
		}
		return m
	}
	rng := rand.New(rand.NewSource(5))
	e, model, puts := MustNew(cfg), make(map[key]uint64), 0
	var kept amcast.Snapshot // restored from and then run past
	var keptBytes []byte
	for step := 0; step < 400; step++ {
		k := key{amcast.NewMsgID(0, uint64(1+rng.Intn(12))), amcast.GroupID(1 + 2*rng.Intn(2))}
		epoch := uint64(rng.Intn(int(model[k]) + 3)) // 0 reads as 1
		e.OnEnvelope(notifEnv(k.id, k.notifier, epoch, nil))
		if max(epoch, 1) > model[k] {
			model[k] = max(epoch, 1)
			puts++
		}
		if len(e.notifDoneLog) != puts {
			t.Fatalf("step %d: %d log entries after %d accepted notifications", step, len(e.notifDoneLog), puts)
		}
		replayed := make(map[key]uint64)
		for _, p := range e.notifDoneLog {
			replayed[key{p.id, p.notifier}] = p.epoch
		}
		snap, err := UnmarshalSnapshot(marshalSnap(t, e.Snapshot()))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		restored := MustNew(cfg)
		if err := restored.Restore(snap); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for what, got := range map[string]map[key]uint64{"index": table(e), "log": replayed, "restored index": table(restored)} {
			if !reflect.DeepEqual(got, model) {
				t.Fatalf("step %d: %s %v, model %v", step, what, got, model)
			}
		}
		if !slices.Equal(restored.notifDoneLog, e.notifDoneLog) {
			t.Fatalf("step %d: restored log differs", step)
		}
		if kept != nil && !bytes.Equal(marshalSnap(t, kept), keptBytes) {
			t.Fatalf("step %d: a snapshot changed under the engine restored from it", step)
		}
		if step%50 == 49 {
			// Carry on from the restored engine: what it appends to the log it
			// took from snap by prefix must not reach snap.
			e, kept, keptBytes = restored, snap, marshalSnap(t, snap)
		}
	}
	if puts < 100 || len(model) < 20 {
		t.Fatalf("only %d puts on %d keys", puts, len(model))
	}
}

// TestSnapshotDecodeRejectsCorruption checks the decoder fails cleanly
// (error, not panic) on truncated records, on a history image that is cut
// short or does not link, and on an accepted-notification log a running
// engine cannot have written.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2, 3})
	eng := MustNew(Config{Group: 2, Overlay: ov})
	a, b := amcast.NewMsgID(0, 1), amcast.NewMsgID(0, 2)
	eng.OnEnvelope(notifEnv(a, 1, 2, &amcast.HistDelta{
		Nodes: []amcast.HistNode{{ID: a, Dst: []amcast.GroupID{1, 3}}, {ID: b, Dst: []amcast.GroupID{1, 3}}},
		Edges: []amcast.HistEdge{{From: a, To: b}},
	}))
	eng.OnEnvelope(notifEnv(a, 1, 4, nil))
	good := eng.capture()
	data := marshalSnap(t, good)
	if _, err := UnmarshalSnapshot(data); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 3 {
		if _, err := UnmarshalSnapshot(data[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte truncation succeeded", cut, len(data))
		}
	}
	if _, err := UnmarshalSnapshot(append(slices.Clone(data), 0)); err == nil {
		t.Fatal("decode with trailing byte succeeded")
	}
	for name, bad := range badSnapshots(good) {
		if _, err := UnmarshalSnapshot(marshalSnap(t, bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if name == "history image cut short" || name == "history image with a self-edge" {
			if err := MustNew(Config{Group: 2, Overlay: ov}).Restore(bad); err == nil {
				t.Errorf("%s: restored", name)
			}
		}
	}
}

// badSnapshots varies one thing each in a snapshot holding a two-node
// history and the log [(a, 1, 2), (a, 1, 4)].
func badSnapshots(good *snapshot) map[string]*snapshot {
	with := func(change func(s *snapshot)) *snapshot {
		s := *good
		s.hst, s.notifDone = slices.Clone(good.hst), slices.Clone(good.notifDone)
		change(&s)
		return &s
	}
	// The second node's only predecessor is slot 0, the last byte of the
	// arena before the free list, nextSeq and the three log entries.
	selfEdge := bytes.LastIndex(good.hst, []byte{1, 0, 0, 3, 3})
	if selfEdge < 0 {
		panic("the history image does not end the way badSnapshots assumes")
	}
	return map[string]*snapshot{
		"history image cut short":                   with(func(s *snapshot) { s.hst = s.hst[:len(s.hst)-1] }),
		"history image with a self-edge":            with(func(s *snapshot) { s.hst[selfEdge+1] = 1 }),
		"put of epoch 0":                            with(func(s *snapshot) { s.notifDone[0].epoch = 0 }),
		"put that repeats the epoch it supersedes":  with(func(s *snapshot) { s.notifDone[1].epoch = 2 }),
		"put below the epoch it supersedes":         with(func(s *snapshot) { s.notifDone[1].epoch = 1 }),
		"put of epoch 0 behind an accepted epoch 2": with(func(s *snapshot) { s.notifDone[1].epoch = 0 }),
	}
}

// TestAllocBudgetCapture pins what a snapshot pays for the history: one
// allocation, the image at its final size, however many nodes there are —
// the rest of capture (the snapshot value and the small tables' maps) is
// the same handful for both engines.
func TestAllocBudgetCapture(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2})
	perCapture := func(nodes int) float64 {
		e := MustNew(Config{Group: 1, Overlay: ov})
		for i := 1; i <= nodes; i++ {
			m := amcast.Message{ID: amcast.NewMsgID(0, uint64(i)), Sender: amcast.ClientNode(0), Dst: []amcast.GroupID{1, 2}}
			e.OnEnvelope(amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
		}
		e.TakeDeliveries()
		if e.HistoryLen() != nodes {
			t.Fatalf("history of %d nodes after %d two-group deliveries", e.HistoryLen(), nodes)
		}
		e.Snapshot() // sizes the encoding buffer
		return testing.AllocsPerRun(50, func() { e.Snapshot() })
	}
	small, big := perCapture(10), perCapture(2000)
	if big != small {
		t.Errorf("a snapshot allocates %v times with 2000 history nodes and %v with 10", big, small)
	}
	t.Logf("allocations per capture: %v (10 nodes), %v (2000 nodes)", small, big)
}
