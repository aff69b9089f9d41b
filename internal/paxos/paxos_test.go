package paxos

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// cluster is an in-memory test harness: replicas exchange messages
// through a queue with configurable drops and reordering, and are ticked
// whenever the queue runs dry.
type cluster struct {
	t        *testing.T
	reps     []*Replica
	queue    []Message
	rng      *rand.Rand
	dropRate float64
	reorder  bool
	// log[r] is the in-order decided log observed at replica r.
	log map[ReplicaID][][]byte
}

func newCluster(t *testing.T, n int, seed int64) *cluster {
	t.Helper()
	c := &cluster{
		t:   t,
		rng: rand.New(rand.NewSource(seed)),
		log: make(map[ReplicaID][][]byte),
	}
	for i := 0; i < n; i++ {
		c.reps = append(c.reps, MustNewReplica(Config{ID: ReplicaID(i), N: n}))
	}
	return c
}

func (c *cluster) send(ms []Message) {
	for _, m := range ms {
		if c.dropRate > 0 && c.rng.Float64() < c.dropRate {
			continue
		}
		c.queue = append(c.queue, m)
	}
}

func (c *cluster) propose(at ReplicaID, v string) {
	c.send(c.reps[at].Propose([]byte(v)))
}

func (c *cluster) collect() {
	for _, r := range c.reps {
		for _, d := range r.TakeDecisions() {
			c.log[r.ID()] = append(c.log[r.ID()], d.Value)
		}
	}
}

// run processes traffic until quiescence or the step budget is spent;
// when the queue drains it ticks all replicas (driving elections and
// retries).
func (c *cluster) run(maxSteps int) {
	for step := 0; step < maxSteps; step++ {
		if len(c.queue) == 0 {
			for _, r := range c.reps {
				c.send(r.Tick())
			}
			c.collect()
			if len(c.queue) == 0 {
				continue
			}
		}
		idx := 0
		if c.reorder && len(c.queue) > 1 {
			idx = c.rng.Intn(len(c.queue))
		}
		m := c.queue[idx]
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		c.send(c.reps[m.To].OnMessage(m))
		c.collect()
	}
	c.collect()
}

// checkPrefixAgreement verifies that all replica logs agree on their
// common prefix — Paxos' safety property.
func (c *cluster) checkPrefixAgreement() {
	c.t.Helper()
	for i := range c.reps {
		for j := i + 1; j < len(c.reps); j++ {
			a, b := c.log[ReplicaID(i)], c.log[ReplicaID(j)]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			for k := 0; k < n; k++ {
				if !bytes.Equal(a[k], b[k]) {
					c.t.Fatalf("logs diverge at %d: replica %d has %q, replica %d has %q",
						k, i, a[k], j, b[k])
				}
			}
		}
	}
}

func TestSingleReplicaDecidesAlone(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.propose(0, "a")
	c.propose(0, "b")
	c.run(100)
	if got := c.log[0]; len(got) != 2 || string(got[0]) != "a" || string(got[1]) != "b" {
		t.Fatalf("log = %q", got)
	}
}

func TestThreeReplicasDecideInOrder(t *testing.T) {
	c := newCluster(t, 3, 2)
	for i := 0; i < 10; i++ {
		c.propose(0, fmt.Sprintf("v%d", i))
	}
	c.run(5000)
	c.checkPrefixAgreement()
	for r := ReplicaID(0); r < 3; r++ {
		if len(c.log[r]) != 10 {
			t.Fatalf("replica %d decided %d entries, want 10", r, len(c.log[r]))
		}
	}
	for i, v := range c.log[0] {
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("entry %d = %q", i, v)
		}
	}
}

func TestFollowerForwardsToLeader(t *testing.T) {
	c := newCluster(t, 3, 3)
	c.propose(0, "warm") // establishes leadership at 0
	c.run(2000)
	c.propose(2, "from-follower")
	c.run(2000)
	c.checkPrefixAgreement()
	if len(c.log[2]) != 2 || string(c.log[2][1]) != "from-follower" {
		t.Fatalf("log = %q", c.log[2])
	}
}

func TestLeaderCrashTriggersFailover(t *testing.T) {
	c := newCluster(t, 3, 4)
	c.propose(0, "before")
	c.run(2000)
	c.reps[0].Crash()
	c.propose(1, "after") // replica 1 must take over
	c.run(20000)
	c.checkPrefixAgreement()
	for r := ReplicaID(1); r < 3; r++ {
		if len(c.log[r]) != 2 {
			t.Fatalf("replica %d decided %d entries, want 2 (%q)", r, len(c.log[r]), c.log[r])
		}
		if string(c.log[r][0]) != "before" || string(c.log[r][1]) != "after" {
			t.Fatalf("replica %d log = %q", r, c.log[r])
		}
	}
	if !c.reps[1].IsLeader() {
		t.Fatal("replica 1 did not become leader")
	}
}

func TestValueSurvivesLeaderCrashAfterAccept(t *testing.T) {
	// The leader reaches a majority of accepts and crashes before
	// broadcasting the decision; the new leader must re-propose the same
	// value (Phase 1 value adoption).
	c := newCluster(t, 3, 5)
	c.propose(0, "survivor")
	// Process messages until the first Decide appears in the queue, then
	// drop all of replica 0's outgoing traffic by crashing it.
	for steps := 0; steps < 1000; steps++ {
		if len(c.queue) == 0 {
			for _, r := range c.reps {
				c.send(r.Tick())
			}
			continue
		}
		m := c.queue[0]
		c.queue = c.queue[1:]
		if m.Kind == MsgDecide {
			// The leader already learned locally; crash it and drop the
			// broadcast so followers never hear the decision directly.
			c.reps[0].Crash()
			c.queue = nil
			break
		}
		c.send(c.reps[m.To].OnMessage(m))
	}
	if !c.reps[0].Crashed() {
		t.Fatal("test never reached the decide broadcast")
	}
	c.run(20000)
	c.checkPrefixAgreement()
	for r := ReplicaID(1); r < 3; r++ {
		if len(c.log[r]) != 1 || string(c.log[r][0]) != "survivor" {
			t.Fatalf("replica %d log = %q, want [survivor]", r, c.log[r])
		}
	}
}

func TestCompetingCampaignsStayConsistent(t *testing.T) {
	// Two replicas campaign concurrently with interleaved messages; at
	// most one value per instance may be chosen.
	c := newCluster(t, 3, 6)
	c.send(c.reps[1].campaign())
	c.send(c.reps[2].campaign())
	c.propose(1, "one")
	c.propose(2, "two")
	c.run(20000)
	c.checkPrefixAgreement()
	// Both values must eventually be decided (in some order).
	seen := make(map[string]bool)
	for _, v := range c.log[1] {
		seen[string(v)] = true
	}
	if !seen["one"] || !seen["two"] {
		t.Fatalf("log missing proposals: %q", c.log[1])
	}
}

func TestMessageLossRecovered(t *testing.T) {
	c := newCluster(t, 3, 7)
	c.dropRate = 0.10
	for i := 0; i < 5; i++ {
		c.propose(0, fmt.Sprintf("v%d", i))
	}
	c.run(50000)
	c.checkPrefixAgreement()
	// With drops, liveness depends on retries via elections; at least the
	// common prefix must agree and no replica may diverge. All replicas
	// that decided anything decided prefixes of the same log.
	if len(c.log[0]) == 0 && len(c.log[1]) == 0 && len(c.log[2]) == 0 {
		t.Skip("all proposals lost under drops; safety still verified")
	}
}

func TestReorderedDeliverySafe(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := newCluster(t, 5, 100+seed)
		c.reorder = true
		for i := 0; i < 8; i++ {
			c.propose(ReplicaID(i%5), fmt.Sprintf("v%d", i))
		}
		c.run(30000)
		c.checkPrefixAgreement()
	}
}

func TestBallotOrdering(t *testing.T) {
	tests := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{1, 0}, Ballot{2, 0}, true},
		{Ballot{2, 0}, Ballot{1, 0}, false},
		{Ballot{1, 0}, Ballot{1, 1}, true},
		{Ballot{1, 1}, Ballot{1, 1}, false},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.less {
			t.Errorf("%v.Less(%v) = %v, want %v", tt.a, tt.b, got, tt.less)
		}
	}
	if !(Ballot{}).IsZero() || (Ballot{1, 0}).IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestNewReplicaValidation(t *testing.T) {
	if _, err := NewReplica(Config{ID: 3, N: 3}); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := NewReplica(Config{ID: -1, N: 3}); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := NewReplica(Config{ID: 0, N: 0}); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := NewReplica(Config{ID: 0, N: maxReplicas + 1}); err == nil {
		t.Error("group larger than the ack bitmask accepted")
	}
}

func TestCrashedReplicaIsSilent(t *testing.T) {
	r := MustNewReplica(Config{ID: 0, N: 1})
	r.Crash()
	if out := r.Propose([]byte("x")); out != nil {
		t.Fatal("crashed replica proposed")
	}
	if out := r.Tick(); out != nil {
		t.Fatal("crashed replica ticked")
	}
	if out := r.OnMessage(Message{Kind: MsgPrepare, Ballot: Ballot{1, 0}}); out != nil {
		t.Fatal("crashed replica answered")
	}
}

func TestMsgKindString(t *testing.T) {
	for k := MsgPropose; k <= MsgDecide; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
	if MsgKind(99).String() != "MsgKind(99)" {
		t.Fatal("unknown kind name wrong")
	}
}
