package simhost_test

import (
	"math/rand"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/sim"
	"flexcast/internal/simhost"
	"flexcast/internal/trace"
)

// drained hosts FlexCast on a chain of three groups over the link
// table, every group persisted with a checkpoint every 64 inputs (none
// in so short a run), and drains a few multicasts through it. Failures
// land in *fails.
func drained(t *testing.T, fails *[]error) *simhost.Host {
	groups := []amcast.GroupID{1, 2, 3}
	ov := overlay.MustCDAG(groups)
	h, err := simhost.New(simhost.Config{
		Groups:        groups,
		NewEngine:     func(g amcast.GroupID) (amcast.Engine, error) { return core.New(core.Config{Group: g, Overlay: ov}) },
		Rec:           trace.NewRecorder(),
		Fail:          func(err error) { *fails = append(*fails, err) },
		SnapshotEvery: 64,
		Decode:        core.UnmarshalSnapshot,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if err := h.Persist(g, t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	cid := amcast.ClientNode(0)
	for i, dst := range [][]amcast.GroupID{{1, 3}, {2, 3}, {1, 2, 3}, {3}, {2, 3}, {1, 3}} {
		m := amcast.Message{ID: amcast.NewMsgID(0, uint64(i+1)), Sender: cid, Dst: dst}
		h.Rec.OnMulticast(m)
		h.Transmit(cid, amcast.GroupNode(ov.Lca(dst)), amcast.Envelope{Kind: amcast.KindRequest, From: cid, Msg: m})
	}
	for busy := h.Links.Busy(); len(busy) > 0; busy = h.Links.Busy() {
		h.Move(busy[0])
	}
	if err := h.Rec.CheckAll(true); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestRecoveryAudits: a crashed group takes no envelope, a recovery
// that fails one of durable.Recover's audits leaves it down until one
// passes, and the recovered engine is the one the group runs.
func TestRecoveryAudits(t *testing.T) {
	var fails []error
	h := drained(t, &fails)
	const g = 3
	img, err := h.Crash(g, false)
	if err != nil {
		t.Fatal(err)
	}
	h.Hand(g, amcast.Envelope{})
	if len(fails) != 1 || !strings.Contains(fails[0].Error(), "crashed group") {
		t.Fatalf("an envelope handed to a crashed group: %v", fails)
	}
	state := img.State
	img.State = state[1:]
	if _, err := h.Recover(g); err == nil || !strings.Contains(err.Error(), "diverged from the crashed engine's final state") {
		t.Fatalf("state lost: recovery returned %v", err)
	}
	img.State = state
	eng, err := h.Recover(g)
	if err != nil {
		t.Fatal(err)
	}
	if eng != h.Engines[g] {
		t.Fatal("the recovered engine is not the one the group runs")
	}
	if _, err := h.Recover(g); err == nil {
		t.Fatal("recovery of a live group accepted")
	}
	if img, err = h.Crash(2, true); err != nil || !img.Torn {
		t.Fatalf("group 2 crashed torn=%t: %v", img.Torn, err)
	}
	if _, err := h.Recover(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil || len(fails) != 1 {
		t.Fatalf("close: %v, failures %v", err, fails)
	}
}

// TestLatenciesFixedPerLink: a link's latency is drawn once, in range,
// from the given stream, in the order links are first used.
func TestLatenciesFixedPerLink(t *testing.T) {
	lat := simhost.Latencies(rand.New(rand.NewSource(1)).Int63n, 100, 200)
	a, b := amcast.GroupNode(1), amcast.GroupNode(2)
	ab, ba := lat(a, b), lat(b, a)
	ref := rand.New(rand.NewSource(1))
	if ab != 100+sim.Time(ref.Int63n(100)) || ba != 100+sim.Time(ref.Int63n(100)) {
		t.Fatalf("latencies %d, %d not the stream's first draws", ab, ba)
	}
	for i := 0; i < 3; i++ {
		if lat(a, b) != ab || lat(b, a) != ba {
			t.Fatal("a link's latency changed")
		}
	}
}
