package simhost_test

import (
	"math/rand"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/durable"
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

// TestRecoveryAudits: a crashed group recovers byte for byte, and each
// of the three audits refuses the recovery it exists for, leaving the
// group down until one passes.
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

	for _, c := range []struct {
		name, want string
		spoil      func(img *simhost.Image)
	}{
		{"torn tail not discarded", "torn", func(img *simhost.Image) { img.Torn = true }},
		{"state lost", "diverged from the crashed engine's final state", func(img *simhost.Image) { img.State = img.State[1:] }},
	} {
		saved := *img
		c.spoil(img)
		if _, err := h.Recover(g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: recovery returned %v", c.name, err)
		}
		*img = saved
	}
	// A torn tail recovery discards, on an image crashed torn.
	if _, err := durable.TearTail(img.Dir, nil); err != nil {
		t.Fatal(err)
	}
	img.Torn = true
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

	// A cadence the image's replay exceeds fails the replay bound.
	img, err = h.Crash(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Torn || img.Since == 0 {
		t.Fatalf("group 2 crashed torn=%t, replaying %d inputs: the audits go unchecked", img.Torn, img.Since)
	}
	h.SnapshotEvery = img.Since - 1
	if _, err := h.RecoverImage(2, img); err == nil || !strings.Contains(err.Error(), "snapshot age does not bound recovery") {
		t.Fatalf("a replay over the cadence: %v", err)
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
