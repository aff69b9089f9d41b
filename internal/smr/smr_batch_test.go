package smr

import (
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/sim"
)

// TestBatchedProposalsDeliverConsistently checks that proposing an
// instant's envelopes as one Paxos value preserves replica consistency
// and the multicast properties, while actually reducing consensus values.
func TestBatchedProposalsDeliverConsistently(t *testing.T) {
	d := deployABC(t, 3)
	d.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(amcast.Envelope) {}))
	const n = 20
	for i := uint64(1); i <= n; i++ {
		d.multicast(t, i, 1, 2, 3)
	}
	d.run(t, 10_000_000)

	for g, reps := range d.delivered {
		for i := 1; i < len(reps); i++ {
			if !reflect.DeepEqual(reps[0], reps[i]) {
				t.Fatalf("group %d: replica 0 delivered %v, replica %d delivered %v",
					g, reps[0], i, reps[i])
			}
		}
		if len(reps[0]) != n {
			t.Fatalf("group %d delivered %d messages, want %d", g, len(reps[0]), n)
		}
	}
	if err := d.rec.CheckAll(false); err != nil {
		t.Fatal(err)
	}

	// The lca (group 1) absorbed all n requests in one injection burst:
	// batching must have collapsed them into fewer proposals.
	values, envs, _ := d.groups[1].Proposals()
	if envs < n {
		t.Fatalf("group 1 proposed %d envelopes, want >= %d", envs, n)
	}
	if values >= envs {
		t.Fatalf("batching ineffective: %d values for %d envelopes", values, envs)
	}
}

// TestBatchedLogRecovery checks that a replica restarting from a decided
// log containing batch values replays it correctly and catches up.
func TestBatchedLogRecovery(t *testing.T) {
	d := deployABC(t, 3)
	d.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(amcast.Envelope) {}))
	for i := uint64(1); i <= 10; i++ {
		d.multicast(t, i, 1, 2, 3)
	}
	d.s.RunUntil(2_000_000)

	// Crash a follower of group 1, keep traffic flowing, then restart it.
	g1 := d.groups[1]
	victim := (g1.Leader() + 1) % 3
	g1.Crash(victim)
	for i := uint64(11); i <= 16; i++ {
		d.multicast(t, i, 1, 2)
	}
	d.s.RunUntil(4_000_000)
	if err := g1.Restart(victim); err != nil {
		t.Fatal(err)
	}
	d.run(t, 10_000_000)

	reps := d.delivered[1]
	// The restarted replica's post-restart deliveries must extend the
	// prefix it had delivered before the crash; replica 0's sequence is
	// the reference. (Replayed entries do not re-invoke OnDeliver, so
	// the victim's recorded sequence is a subsequence of the reference
	// ending at the same point.)
	ref := reps[0]
	vic := reps[victim]
	if len(ref) == 0 || len(vic) == 0 {
		t.Fatalf("deliveries missing: ref=%d victim=%d", len(ref), len(vic))
	}
	if g1.Applied(victim) != g1.Applied(0) {
		t.Fatalf("victim applied %d log entries, reference %d", g1.Applied(victim), g1.Applied(0))
	}
	if err := d.rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}
