package paxos

import (
	"fmt"
	"testing"

	"flexcast/internal/prototest"
)

// trio is three replicas whose every message is delivered in send
// order, replica 0 leading.
type trio struct {
	reps  [3]*Replica
	queue []Message
}

func newTrio() *trio {
	t := &trio{}
	for i := range t.reps {
		t.reps[i] = MustNewReplica(Config{ID: ReplicaID(i), N: 3})
	}
	return t
}

// decide proposes v at the leader and delivers everything that follows,
// dropping the messages for which drop returns true.
func (t *trio) decide(v []byte, drop func(Message) bool) {
	t.queue = append(t.queue[:0], t.reps[0].Propose(v)...)
	for i := 0; i < len(t.queue); i++ {
		if m := t.queue[i]; drop == nil || !drop(m) {
			t.queue = append(t.queue, t.reps[m.To].OnMessage(m)...)
		}
	}
	for _, r := range t.reps {
		r.TakeDecisions()
	}
}

// TestStateIsTheWindow: after 100 000 decisions with no truncation, a
// replica's acceptor state is its undecided window — a few slots, not
// one entry per decision — and a campaign then visits only that window.
func TestStateIsTheWindow(t *testing.T) {
	const decisions = 100_000
	tr := newTrio()
	v := []byte("value")
	for i := 0; i < decisions; i++ {
		tr.decide(v, nil)
	}
	for _, r := range tr.reps {
		if r.Decided() != decisions || len(r.log) != decisions {
			t.Fatalf("replica %d decided %d, retains %d values, want %d", r.ID(), r.Decided(), len(r.log), decisions)
		}
		if r.win.n != 0 || len(r.win.slots) > 8 {
			t.Fatalf("replica %d: window of %d instances in %d slots after delivering everything", r.ID(), r.win.n, len(r.win.slots))
		}
	}
	// Three more values reach the followers' acceptors but are never
	// decided: the leader hears no Accepted.
	const undecided = 3
	for i := 0; i < undecided; i++ {
		tr.decide([]byte(fmt.Sprintf("open%d", i)), func(m Message) bool { return m.Kind == MsgAccepted })
	}
	var before [3]uint64
	for i, r := range tr.reps {
		before[i] = r.scanned
		if r.win.n != undecided {
			t.Fatalf("replica %d holds %d window instances, want %d", r.ID(), r.win.n, undecided)
		}
	}
	// Replica 1 campaigns; every replica answers its Prepare.
	tr.queue = append(tr.queue[:0], tr.reps[1].campaign()...)
	for i := 0; i < len(tr.queue); i++ {
		m := tr.queue[i]
		tr.queue = append(tr.queue, tr.reps[m.To].OnMessage(m)...)
	}
	if !tr.reps[1].IsLeader() {
		t.Fatal("replica 1 did not win its campaign")
	}
	for i, r := range tr.reps {
		// maxPromised and the Promise's report each visit the window once.
		if got := r.scanned - before[i]; got > 2*undecided {
			t.Fatalf("replica %d visited %d instance states in a campaign, window %d", r.ID(), got, undecided)
		}
	}
	for _, r := range tr.reps {
		if r.Decided() != decisions+undecided {
			t.Fatalf("replica %d decided %d after the campaign re-proposed the open values, want %d", r.ID(), r.Decided(), decisions+undecided)
		}
	}
}

// TestAllocBudgetDecide: a decision in steady state allocates the
// message slices it returns (the leader's Accepts and Decides, one reply
// per follower) and each replica's decision batch — no per-instance
// state. The decided log's amortized growth rounds away.
func TestAllocBudgetDecide(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	tr := newTrio()
	v := []byte("value")
	for i := 0; i < 1000; i++ {
		tr.decide(v, nil)
	}
	for _, r := range tr.reps {
		r.TruncateBefore(r.Decided())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.decide(v, nil)
	})
	t.Logf("%.2f allocations per decision", allocs)
	if allocs > 7 {
		t.Fatalf("%.2f allocations per decision, budget 7", allocs)
	}
}
