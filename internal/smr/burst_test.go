package smr

import (
	"math/rand"
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/prototest"
	"flexcast/internal/sim"
)

// TestBurstIsFewProposals: a 200-operation wave reaches each lca's
// ingress in a few instants, and each instant's envelopes, less the
// copies the ingress suppresses, are proposed as ⌈envelopes/maxBatch⌉
// values. Every distinct envelope that reached an ingress is proposed
// exactly once; with 3 replicas and no crash every peer envelope arrives
// three times, so exactly two thirds of them are suppressed.
func TestBurstIsFewProposals(t *testing.T) {
	var s *sim.Simulator
	// arrivals[g][at] counts the envelopes sent to g's ingress at at:
	// every link has one latency, so they reach it in one instant.
	arrivals := make(map[amcast.GroupID]map[sim.Time]int)
	peer := make(map[amcast.GroupID]uint64)
	distinct := make(map[amcast.GroupID]map[string]bool)
	d := deployBurst(t, 4, 3, sim.WithSendHook(func(from, to amcast.NodeID, env amcast.Envelope) {
		if to.IsClient() || to >= replicaBase {
			return
		}
		g := amcast.GroupID(to)
		if arrivals[g] == nil {
			arrivals[g] = make(map[sim.Time]int)
			distinct[g] = make(map[string]bool)
		}
		arrivals[g][s.Now()]++
		if !env.From.IsClient() {
			peer[g]++
		}
		distinct[g][string(codec.Marshal(env))] = true
	}))
	s = d.s
	d.wave(t, rand.New(rand.NewSource(7)), 200)
	d.drain(t)
	if err := d.rec.CheckAll(false); err != nil {
		t.Fatal(err)
	}

	var peers uint64
	for _, n := range peer {
		peers += n
	}
	if peers == 0 {
		t.Fatal("no peer envelope reached an ingress")
	}
	for g, grp := range d.groups {
		var want, arrived uint64
		biggest := 0
		for _, n := range arrivals[g] {
			want += uint64((n + maxBatch - 1) / maxBatch)
			arrived += uint64(n)
			biggest = max(biggest, n)
		}
		values, proposed, suppressed := grp.Proposals()
		if arrived != proposed+suppressed {
			t.Fatalf("group %d: %d envelopes reached its ingress, %d proposed + %d suppressed", g, arrived, proposed, suppressed)
		}
		if 3*suppressed != 2*peer[g] {
			t.Fatalf("group %d suppressed %d of %d peer envelopes, want two thirds", g, suppressed, peer[g])
		}
		got := proposedEncodings(t, grp, 0)
		for enc := range distinct[g] {
			if got[enc] != 1 {
				t.Fatalf("group %d: an envelope that reached its ingress was proposed %d times", g, got[enc])
			}
		}
		if len(got) != len(distinct[g]) {
			t.Fatalf("group %d proposed %d distinct envelopes, %d reached its ingress", g, len(got), len(distinct[g]))
		}
		if values > want {
			t.Fatalf("group %d proposed %d values for %d envelopes in %d instants, want <= %d",
				g, values, proposed, len(arrivals[g]), want)
		}
		// The wave's requests reach every group in one instant.
		if biggest < 30 {
			t.Fatalf("group %d: largest instant carried %d envelopes, want the wave's ~50 requests", g, biggest)
		}
		t.Logf("group %d: %d envelopes (%d from peers) in %d instants, %d suppressed, %d values",
			g, arrived, peer[g], len(arrivals[g]), suppressed, values)

		for i := 1; i < len(grp.replicas); i++ {
			if grp.Applied(i) != grp.Applied(0) {
				t.Fatalf("group %d: replica %d applied %d entries, replica 0 %d", g, i, grp.Applied(i), grp.Applied(0))
			}
			if !reflect.DeepEqual(d.delivered[g][i], d.delivered[g][0]) {
				t.Fatalf("group %d: replica %d delivered %v, replica 0 %v", g, i, d.delivered[g][i], d.delivered[g][0])
			}
		}
	}
}

// proposedEncodings counts the envelopes of replica idx's decided log
// by their encoding.
func proposedEncodings(t *testing.T, grp *Group, idx int) map[string]int {
	t.Helper()
	got := make(map[string]int)
	for _, v := range grp.replicas[idx].pax.DecidedLog() {
		envs, err := codec.DecodeFrame(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, env := range envs {
			got[string(codec.Marshal(env))]++
		}
	}
	return got
}

// TestCopiesAcrossLeaderCrash: group 1's leader crashes mid-wave and
// restarts as a follower, while one copy of a peer envelope to group 4
// is held on its link until group 4's ingress has forgotten the
// original, so it is proposed a second time. Every message is still
// delivered at all of its destinations, in one order at every replica.
func TestCopiesAcrossLeaderCrash(t *testing.T) {
	const (
		waves   = 100
		apart   = 100_000   // µs between waves
		late    = 8_000_000 // µs the held copy waits
		crashAt = 20        // wave
		backAt  = 60        // wave
	)
	target := amcast.GroupNode(4)
	sent := make(map[string]bool)
	var held string
	d := deployBurst(t, 4, 3, sim.WithoutFIFO(), sim.WithFaults(func(from, to amcast.NodeID, env amcast.Envelope) sim.LinkFault {
		if held != "" || to != target || env.From.IsClient() {
			return sim.LinkFault{}
		}
		enc := string(codec.Marshal(env))
		if !sent[enc] {
			sent[enc] = true
			return sim.LinkFault{}
		}
		held = enc
		return sim.LinkFault{Delay: late}
	}))
	g1 := d.groups[1]
	d.recFrom[1] = 1
	rng := rand.New(rand.NewSource(3))
	victim, before := -1, 0
	for w := 0; w < waves; w++ {
		d.s.RunUntil(sim.Time(w) * apart)
		d.wave(t, rng, 200)
		switch w {
		case crashAt:
			// The wave's requests reach group 1 after one link latency;
			// crash its leader while their proposal is being decided.
			d.s.RunFor(40_000 + 300)
			victim = g1.Leader()
			if victim < 0 || victim == d.recFrom[1] {
				t.Fatalf("group 1 leader %d at the crash", victim)
			}
			before = len(d.delivered[1][victim])
			g1.Crash(victim)
		case backAt:
			if err := g1.Restart(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.drain(t)
	if err := d.rec.CheckAll(false); err != nil {
		t.Fatal(err)
	}
	if held == "" {
		t.Fatal("no copy was held")
	}
	if n := proposedEncodings(t, d.groups[4], 0)[held]; n != 2 {
		t.Fatalf("the held copy's envelope was proposed %d times, want 2 (the copy outlives the ring)", n)
	}

	for g, grp := range d.groups {
		ref := d.delivered[g][d.recFrom[g]]
		for i := range grp.replicas {
			if grp.Applied(i) != grp.Applied(d.recFrom[g]) {
				t.Fatalf("group %d: replica %d applied %d entries, replica %d %d", g, i, grp.Applied(i), d.recFrom[g], grp.Applied(d.recFrom[g]))
			}
			seq := d.delivered[g][i]
			if g == 1 && i == victim {
				// Replayed entries do not re-invoke OnDeliver: the victim
				// delivered a prefix before the crash and a suffix after
				// its restart.
				tail := seq[before:]
				if !reflect.DeepEqual(seq[:before], ref[:before]) || !reflect.DeepEqual(tail, ref[len(ref)-len(tail):]) {
					t.Fatalf("group 1: restarted replica %d delivered %v, replica %d %v", i, seq, d.recFrom[g], ref)
				}
				continue
			}
			if !reflect.DeepEqual(seq, ref) {
				t.Fatalf("group %d: replica %d delivered %v, replica %d %v", g, i, seq, d.recFrom[g], ref)
			}
		}
	}
}

// TestProposedAtRetired: each proposal's propose time is kept until its
// value is first applied, then recorded once in Telemetry().Commit.
func TestProposedAtRetired(t *testing.T) {
	d := deployBurst(t, 4, 3)
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < 50; w++ {
		d.wave(t, rng, 200)
		d.s.RunFor(1_000_000)
	}
	var allValues uint64
	for _, grp := range d.groups {
		values, _, _ := grp.Proposals()
		allValues += values
	}
	t.Logf("%.3f Paxos values per multicast", float64(allValues)/float64(d.rec.Multicasts()))
	for g, grp := range d.groups {
		values, _, _ := grp.Proposals()
		var decided uint64 // no lease entries: every log entry is a proposal
		for i := range grp.replicas {
			decided = max(decided, grp.Applied(i))
		}
		if undecided := values - decided; uint64(len(grp.proposedAt)) > undecided {
			t.Fatalf("group %d holds %d propose times for %d undecided proposals", g, len(grp.proposedAt), undecided)
		}
		if n := grp.Telemetry().Commit.Count(); n != decided {
			t.Fatalf("group %d recorded %d commit latencies for %d decided proposals", g, n, decided)
		}
	}
}

// TestAllocBudgetBurst bounds the allocations of one multicast of a
// 200-operation wave on smr-sim's shape (4 groups × 3 replicas), from
// issue to every replica's delivery. Proposing every envelope as its own
// Paxos value cost 75.9 allocations per multicast; proposing an instant's
// envelopes together costs 41.5 (go1.24, linux/amd64).
func TestAllocBudgetBurst(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	const wave, budget = 200, 50
	d := deployBurst(t, 4, 3)
	rng := rand.New(rand.NewSource(1))
	run := func() {
		d.wave(t, rng, wave)
		d.s.RunFor(1_000_000)
	}
	for i := 0; i < 5; i++ {
		run()
	}
	perOp := testing.AllocsPerRun(10, run) / wave
	t.Logf("%.1f allocations per multicast", perOp)
	if perOp > budget {
		t.Fatalf("%.1f allocations per multicast, budget %d", perOp, budget)
	}
}
