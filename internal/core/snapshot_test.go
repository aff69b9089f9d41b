package core_test

import (
	"bytes"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
)

func snapFactory(ov *overlay.CDAG) prototest.EngineFactory {
	return func(g amcast.GroupID) amcast.Engine {
		return core.MustNew(core.Config{Group: g, Overlay: ov})
	}
}

// TestSnapshotReplay checks the SnapshotEngine contract under random
// workloads: an engine restored from a mid-run snapshot must replay the
// remaining inputs to byte-identical outputs and deliveries. FlexCast is
// the hardest case — the snapshot must capture the history DAG, the
// per-ancestor queues, pending acks/notifications and the diff cursors.
func TestSnapshotReplay(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3, 4, 5}
	ov := overlay.MustCDAG(groups)
	route := func(m amcast.Message) []amcast.NodeID {
		return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
	}
	for _, snapAfter := range []int{0, 1, 7, 40} {
		for seed := int64(1); seed <= 4; seed++ {
			prototest.RunSnapshotReplay(t, prototest.RandomConfig{
				Groups:   groups,
				Clients:  3,
				Messages: 12,
				Route:    route,
				Factory:  snapFactory(ov),
				Seed:     seed,
				Jitter:   3000,
			}, snapAfter)
		}
	}
}

// TestDurableReplay runs the on-disk sibling of TestSnapshotReplay: the
// engines persist through the real durable backend, and the kill -9
// image of each group is recovered under three crash shapes — clean,
// a torn frame appended past the last record, and the last record
// truncated mid-frame — with the recovered state audited byte for byte.
func TestDurableReplay(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3, 4, 5}
	ov := overlay.MustCDAG(groups)
	route := func(m amcast.Message) []amcast.NodeID {
		return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
	}
	for _, snapEvery := range []int{7, 1 << 20} {
		for seed := int64(1); seed <= 3; seed++ {
			prototest.RunDurableReplay(t, prototest.RandomConfig{
				Groups:   groups,
				Clients:  3,
				Messages: 12,
				Route:    route,
				Factory:  snapFactory(ov),
				Seed:     seed,
			}, core.UnmarshalSnapshot, snapEvery)
		}
	}
}

// TestRestoreRejectsMismatch verifies the Restore guard rails: wrong
// group and foreign snapshot types are refused.
func TestRestoreRejectsMismatch(t *testing.T) {
	ov := overlay.MustCDAG([]amcast.GroupID{1, 2})
	e1 := core.MustNew(core.Config{Group: 1, Overlay: ov})
	e2 := core.MustNew(core.Config{Group: 2, Overlay: ov})
	if err := e2.Restore(e1.Snapshot()); err == nil {
		t.Fatal("restore of group 1 snapshot into group 2 engine succeeded")
	}
	if err := e1.Restore(badSnapshot{}); err == nil {
		t.Fatal("restore of foreign snapshot type succeeded")
	}
}

type badSnapshot struct{}

func (badSnapshot) SnapshotGroup() amcast.GroupID { return 1 }

// TestSnapshotIsolation verifies a snapshot shares no mutable state with
// its engine: the engine keeps running after the snapshot, and restoring
// the snapshot twice must give identical engines.
func TestSnapshotIsolation(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3}
	ov := overlay.MustCDAG(groups)
	e := core.MustNew(core.Config{Group: 3, Overlay: ov})

	// Feed a MSG that stays queued (no acks yet): rich pending state.
	m := prototest.Msg(7, 1, 2, 3)
	e.OnEnvelope(amcast.Envelope{Kind: amcast.KindMsg, From: amcast.GroupNode(1), Msg: m,
		Hist: &amcast.HistDelta{Nodes: []amcast.HistNode{{ID: m.ID, Dst: m.Dst}}}})
	snap := e.Snapshot()

	// Mutate the engine past the snapshot: deliver m by supplying the ack.
	e.OnEnvelope(amcast.Envelope{Kind: amcast.KindAck, From: amcast.GroupNode(2), Msg: m.Header()})
	if len(e.TakeDeliveries()) == 0 {
		t.Fatal("setup: ack did not unblock delivery")
	}

	for i := 0; i < 2; i++ {
		r := core.MustNew(core.Config{Group: 3, Overlay: ov})
		if err := r.Restore(snap); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		if r.QueuedMessages() != 1 {
			t.Fatalf("restore %d: queued = %d, want 1 (snapshot corrupted by running engine?)", i, r.QueuedMessages())
		}
		outs := r.OnEnvelope(amcast.Envelope{Kind: amcast.KindAck, From: amcast.GroupNode(2), Msg: m.Header()})
		dels := r.TakeDeliveries()
		if len(dels) != 1 || dels[0].Msg.ID != m.ID {
			t.Fatalf("restore %d: deliveries after ack = %v, want [%s]", i, dels, m.ID)
		}
		_ = outs
	}

	// The delivery log is shared with the engine by prefix, not copied:
	// the engine appending 10k more deliveries — reallocating the log
	// several times — while another goroutine marshals the snapshot must
	// leave the snapshot's encoding unchanged (and -race clean).
	request := func(i uint64) amcast.Envelope {
		return amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(0), Msg: prototest.Msg(100+i, 3)}
	}
	for i := uint64(0); i < 100; i++ {
		e.OnEnvelope(request(i))
	}
	e.TakeDeliveries()
	shared := e.Snapshot().(amcast.BinarySnapshot)
	want, err := shared.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	marshalled := make(chan []byte)
	go func() {
		defer close(marshalled)
		for i := 0; i < 20; i++ {
			data, _ := shared.MarshalBinary()
			marshalled <- data
		}
	}()
	next := uint64(100)
	for data := range marshalled {
		for end := next + 500; next < end; next++ {
			e.OnEnvelope(request(next))
		}
		e.TakeDeliveries()
		if !bytes.Equal(data, want) {
			t.Fatal("snapshot encoding changed while the engine kept delivering")
		}
	}
	if got, _ := shared.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatal("snapshot encoding changed after the engine delivered 10k more messages")
	}
}
