package chaos_test

import (
	"sync/atomic"
	"testing"

	"flexcast/internal/chaos"
	"flexcast/internal/core"
)

// walkTally counts the walks core.WalkCheck reports while it is
// installed: all of them, those the closed rule stopped earlier, and
// those whose two answers disagree (the first kept for the report).
type walkTally struct {
	walks, shorter, disagree atomic.Int64
	first                    atomic.Pointer[core.WalkReport]
}

// checkWalks installs a tally as core.WalkCheck until the test ends.
func checkWalks(t *testing.T) *walkTally {
	t.Helper()
	w := new(walkTally)
	check := func(r core.WalkReport) {
		w.walks.Add(1)
		if r.PrunedNodes < r.FullNodes {
			w.shorter.Add(1)
		}
		if r.Full != r.Pruned {
			w.disagree.Add(1)
			w.first.CompareAndSwap(nil, &r)
		}
	}
	if !core.WalkCheck.CompareAndSwap(nil, &check) {
		t.Fatal("a walk check is installed already")
	}
	t.Cleanup(func() { core.WalkCheck.Store(nil) })
	return w
}

// require fails the test on a disagreeing walk, or when no walk was
// checked or none was shortened by closed nodes.
func (w *walkTally) require(t *testing.T) {
	t.Helper()
	if r := w.first.Load(); r != nil {
		t.Fatalf("%d of %d walks disagree; first: %+v", w.disagree.Load(), w.walks.Load(), *r)
	}
	if w.walks.Load() == 0 || w.shorter.Load() == 0 {
		t.Fatalf("%d walks, %d shortened by closed nodes: the check saw nothing to check", w.walks.Load(), w.shorter.Load())
	}
	t.Logf("%d walks agree, %d stopped earlier at closed nodes", w.walks.Load(), w.shorter.Load())
}

// TestClosedWalkAgreesWithFullWalk checks the closed rule (DESIGN.md §4
// deviation 5) under faults: on every canDeliver the explorer reaches —
// duplicates of every envelope kind, retransmissions, partitions,
// crash/recovery through the durable backend — the walk that stops at
// closed nodes answers what AnyBeforeUntil(m, open, delivered) answers
// over the engine's own sets (core.WalkCheck). TestFig5SeedSweep runs
// the same check over the fig5 seed sweep.
func TestClosedWalkAgreesWithFullWalk(t *testing.T) {
	w := checkWalks(t)
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
	w.require(t)
}
