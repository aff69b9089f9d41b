package chaos_test

import (
	"sync/atomic"
	"testing"

	"flexcast/internal/chaos"
	"flexcast/internal/core"
	"flexcast/internal/prototest"
)

// TestClosedWalkAgreesWithFullWalk checks the closed rule (DESIGN.md §4
// deviation 5) under faults: on every canDeliver the explorer reaches —
// duplicates of every envelope kind, retransmissions, partitions,
// crash/recovery through the durable backend — and on
// every canDeliver of the fig5 seed sweep, the walk that stops at closed
// nodes answers what AnyBeforeUntil(m, open, delivered) answers over the
// engine's own sets (core.WalkCheck).
func TestClosedWalkAgreesWithFullWalk(t *testing.T) {
	var walks, shorter, disagree atomic.Int64
	var first atomic.Pointer[core.WalkReport]
	check := func(r core.WalkReport) {
		walks.Add(1)
		if r.PrunedNodes < r.FullNodes {
			shorter.Add(1)
		}
		if r.Full != r.Pruned {
			disagree.Add(1)
			first.CompareAndSwap(nil, &r)
		}
	}
	if !core.WalkCheck.CompareAndSwap(nil, &check) {
		t.Fatal("a walk check is installed already")
	}
	t.Cleanup(func() { core.WalkCheck.Store(nil) })

	d := flexDeployment(groups5)
	for _, opt := range []chaos.Options{
		{Seed: 1, Schedules: 30},
		{Seed: 11, Schedules: 10, Crashes: 3, DowntimeMean: 600_000},
		{Seed: 4, Schedules: 5},
	} {
		rep, err := chaos.Explore(d, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("seed %d: invariant violation: %v", opt.Seed, rep.Violations[0].Err)
		}
		if rep.Faults.Crashes == 0 || rep.Faults.Duplicates == 0 {
			t.Fatalf("seed %d: no crashes or duplicates: %+v", opt.Seed, rep.Faults)
		}
	}
	// The whole sweep without -race; under its slowdown, seeds 1–4 (the
	// two historical ring seeds among them).
	seeds := int64(32)
	if prototest.RaceEnabled() {
		seeds = 4
	}
	if !testing.Short() {
		for seed := int64(1); seed <= seeds; seed++ {
			requireClean(t, seed, fig5(t, seed, 250_000))
		}
	}
	if r := first.Load(); r != nil {
		t.Fatalf("%d of %d walks disagree; first: %+v", disagree.Load(), walks.Load(), *r)
	}
	if walks.Load() == 0 || shorter.Load() == 0 {
		t.Fatalf("%d walks, %d shortened by closed nodes: the check saw nothing to check", walks.Load(), shorter.Load())
	}
	t.Logf("%d walks agree, %d stopped earlier at closed nodes", walks.Load(), shorter.Load())
}
