package core_test

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
)

// TestFreshRequestRingCycle is the shrunk, scripted form of the
// acyclic-order violation that used to reproduce as
//
//	flexgrid -cells '^fig5-verify/seed=2$'
//
// (DESIGN.md §4 deviation 8, now closed). Five two-destination messages
// over five rank-adjacent groups form a ring: each adjacent pair shares
// exactly ONE destination group, so pairwise prefix order holds
// everywhere and only the global acyclicity audit would see the cycle.
// This test replays that ring move by move and asserts the
// re-certification fix breaks it.
//
// Groups ranked 1 < 2 < 3 < 4 < 5. Ring members (all two-destination):
//
//	mA = {1,2}, mB = {1,5}, mC = {2,3}, mD = {3,4}, mE = {4,5}
//
// plus two seeds that only make g1's and g3's histories carry traffic
// for the NOTIF gate: s3 = {1,3} and s34 = {3,4}.
//
// Mechanism — a staircase of lca fast-path deliveries racing in-flight
// MSGs: g1 delivers mA then mB; g2 delivers fresh mC just before
// MSG(mA) lands (mC ≺ mA); g3 delivers fresh mD just before MSG(mC)
// lands (mD ≺ mC); g4 delivers fresh mE just before MSG(mD) lands
// (mE ≺ mD); g5 would then deliver mB before MSG(mE), closing
// mA ≺ mB ≺ mE ≺ mD ≺ mC ≺ mA.
//
// Before the fix, the staircase escaped every wait: each flush ack
// snapshots dependencies at ack time, each group's fatal inversion is
// created only after its last mB-related send, and the one message that
// could carry the final edge (mE ≺ mD) to g5 — g3's re-notification of
// g4 — was folded as a duplicate because g4 had already answered a
// NOTIF(mB) from g3 once.
//
// The fix is latency-bounded edge re-certification: a NOTIF carries a
// certification epoch that g3 bumps when its history has gained traffic
// for g4 since the last NOTIF(mB) it sent there (here: mD). The bumped
// pair (g3→g4)@2 is announced on g3's accompanying flush ack, so g5
// raises its wait; g4 cannot fold the epoch-2 NOTIF and must answer
// with a fresh flush ack whose history diff — sent after MSG(mE) on the
// same FIFO link — carries the fatal edge. g5 then orders mB after mE
// and the ring never closes. This test walks that exact sequence.
func TestFreshRequestRingCycle(t *testing.T) {
	const (
		g1 amcast.GroupID = 1
		g2 amcast.GroupID = 2
		g3 amcast.GroupID = 3
		g4 amcast.GroupID = 4
		g5 amcast.GroupID = 5
	)
	ov := overlay.MustCDAG([]amcast.GroupID{g1, g2, g3, g4, g5})
	r := prototest.NewRouter(t, ov.Order(), func(g amcast.GroupID) amcast.Engine {
		return core.MustNew(core.Config{Group: g, Overlay: ov})
	})
	s3 := prototest.Msg(1, g1, g3)
	mA := prototest.Msg(2, g1, g2)
	mB := prototest.Msg(3, g1, g5)
	s34 := prototest.Msg(4, g3, g4)
	mC := prototest.Msg(5, g2, g3)
	mD := prototest.Msg(6, g3, g4)
	mE := prototest.Msg(7, g4, g5)

	// g1 delivers s3, mA, mB on the lca fast path. mB's delivery sends
	// MSG(mB) to g5 and — g1's history holding traffic for g2 (mA) and
	// g3 (s3) — NOTIF(mB) to both, creating pairs (g1→g2) and (g1→g3).
	r.Multicast(g1, s3)
	r.Multicast(g1, mA)
	r.Multicast(g1, mB)
	wantOrder(t, r.Seq(g1), 1, 2, 3)

	// g3 seeds its history with s34 (fresh lca) and s3, then answers
	// g1's NOTIF(mB) with nothing open: the flush ack (covering g1)
	// heads for g5, and — g3's history holding s34, addressed to g4 —
	// g3 re-notifies g4 at epoch 1, creating pair (g3→g4)@1.
	r.Multicast(g3, s34)
	r.Step(g1, g3, amcast.KindMsg, 1)
	r.Step(g1, g3, amcast.KindNotif, 3)
	wantOrder(t, r.Seq(g3), 4, 1)

	// g2's staircase step: fresh mC is delivered before the in-flight
	// MSG(mA) lands — the first ring inversion, mC ≺ mA. The NOTIF(mB)
	// answer then carries that edge to g5 (harmless: neither mC nor mA
	// is addressed to g5) and re-notifies g3, creating pair (g2→g3).
	r.Multicast(g2, mC)
	r.Step(g1, g2, amcast.KindMsg, 2)
	r.Step(g1, g2, amcast.KindNotif, 3)
	wantOrder(t, r.Seq(g2), 5, 2)

	// g4 discharges its first round of mB obligations before its own
	// staircase step: it delivers s34, then answers g3's epoch-1 NOTIF
	// with nothing open. Its covering ack predates the fatal edge.
	r.Step(g3, g4, amcast.KindMsg, 4)
	r.Step(g3, g4, amcast.KindNotif, 3)
	wantOrder(t, r.Seq(g4), 4)

	// g3's staircase step: fresh mD before the in-flight MSG(mC) —
	// mD ≺ mC. Answering g2's NOTIF (a different notifier, so not
	// folded) sends a second flush ack that carries mD ≺ mC to g5 AND
	// re-sends NOTIF(mB) to g4. g3's history has gained traffic for g4
	// since its epoch-1 NOTIF (mD is addressed to g4), so the re-NOTIF
	// goes out at epoch 2 and the ack announces the bumped (g3→g4)@2.
	r.Multicast(g3, mD)
	r.Step(g2, g3, amcast.KindMsg, 5)
	r.Step(g2, g3, amcast.KindNotif, 3)
	wantOrder(t, r.Seq(g3), 4, 1, 6, 5)

	// g4's staircase step: fresh mE before the in-flight MSG(mD) — the
	// fatal edge mE ≺ mD, created AFTER g4's epoch-1 ack. g3's epoch-2
	// NOTIF(mB) then lands and is NOT foldable: g4 must answer with a
	// fresh flush ack. On the FIFO g4→g5 link that ack follows MSG(mE),
	// so its history diff carries the fatal edge to g5.
	before := r.LinkDepth(g4, g5)
	r.Multicast(g4, mE)
	r.Step(g3, g4, amcast.KindMsg, 6)
	r.Step(g3, g4, amcast.KindNotif, 3)
	wantOrder(t, r.Seq(g4), 4, 7, 6)
	if got := r.LinkDepth(g4, g5) - before; got != 2 {
		t.Fatalf("g4 sent %d envelopes to g5 after its staircase step, want 2 "+
			"(MSG(mE) plus the epoch-2 re-certification ack)", got)
	}

	// g5 collects MSG(mB) and the covering flush acks one by one. The
	// pair-wise wait blocks delivery until every known (notifier →
	// notified) pair is covered at its highest announced epoch.
	r.Step(g1, g5, amcast.KindMsg, 3)
	if got := r.Seq(g5); len(got) != 0 {
		t.Fatalf("g5 delivered %v with no flush acks", got)
	}
	r.Step(g2, g5, amcast.KindAck, 3) // g2 covering g1
	r.Step(g3, g5, amcast.KindAck, 3) // g3 covering g1, announcing (g3→g4)@1
	r.Step(g3, g5, amcast.KindAck, 3) // g3 covering g2, announcing (g3→g4)@2
	if got := r.Seq(g5); len(got) != 0 {
		t.Fatalf("g5 delivered %v before g4's ack covered the (g3→g4) pair", got)
	}
	// g4's epoch-1 ack — sent before the fatal edge existed — arrives
	// first on the FIFO link. It covers (g3→g4) only at epoch 1, and g5
	// knows the pair was re-certified at epoch 2: mB stays blocked.
	// This is the exact point where the pre-fix engine delivered mB and
	// closed the ring.
	r.Step(g4, g5, amcast.KindAck, 3)
	if got := r.Seq(g5); len(got) != 0 {
		t.Fatalf("g5 delivered %v on a stale epoch-1 cover of the re-certified "+
			"(g3→g4) pair", got)
	}

	// MSG(mE) lands next on the link. mE has no undelivered
	// predecessors addressed to g5, so it delivers immediately — and
	// now precedes mB in g5's local order, exactly opposite the pre-fix
	// run.
	r.Step(g4, g5, amcast.KindMsg, 7)

	// g4's epoch-2 ack completes the wait; its history diff carries
	// mE ≺ mD, so mB is ordered after mE. No ring.
	r.Step(g4, g5, amcast.KindAck, 3)
	wantOrder(t, r.Seq(g5), 7, 3)

	r.Drain()

	// Integrity, agreement, pairwise prefix order AND the global
	// acyclicity audit — the check only the pre-fix trace failed — all
	// hold.
	if err := r.Recorder.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if err := r.Recorder.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if err := r.Recorder.CheckPrefixOrder(); err != nil {
		t.Fatal(err)
	}
	if err := r.Recorder.CheckAcyclicOrder(); err != nil {
		t.Fatal(err)
	}
}
