package chaos_test

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/chaos"
	"flexcast/internal/core"
	"flexcast/internal/deploy"
	"flexcast/internal/prototest"
	"flexcast/internal/sim"
	"flexcast/internal/trace"
	"flexcast/internal/wan"
)

// fig5 runs the exact configuration of the formerly-open acyclic-order
// repro, the grid cells fig5-verify/seed=N of experiments.json: the
// paper's latency setup (FlexCast on O1, 240 closed-loop clients with
// per-destination reply waits, global-only gTPC-C at 90 % locality) with
// the given flush cadence over 2 virtual seconds, drained and recorded.
func fig5(t *testing.T, seed int64, flushEvery sim.Time) *chaos.ScheduleResult {
	t.Helper()
	d, err := chaos.NewDeployment(deploy.Spec{Protocol: deploy.FlexCast, Overlay: wan.O1()}, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chaos.RunSchedule(d, chaos.Options{
		Locality:   0.90,
		Clients:    240,
		GlobalOnly: true,
		Duration:   2_000_000,
		FlushEvery: flushEvery,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// findDeliveryCycle extracts one cycle from the union of the per-group
// delivery chains, as a sequence of message IDs in ≺ order (each
// element delivered before the next at some group, wrapping around).
// Returns nil when the global order is acyclic. Kept as the diagnostic
// for any future regression: a failing run's cycle is printed with the
// destination overlap of each adjacent pair.
func findDeliveryCycle(rec *trace.Recorder) []amcast.MsgID {
	succ := make(map[amcast.MsgID][]amcast.MsgID)
	for _, g := range rec.Groups() {
		seq := rec.Sequence(g)
		for i := 0; i+1 < len(seq); i++ {
			succ[seq[i]] = append(succ[seq[i]], seq[i+1])
		}
	}
	const (
		white = iota
		gray
		black
	)
	color := make(map[amcast.MsgID]int)
	var stack []amcast.MsgID
	var cycle []amcast.MsgID
	var visit func(id amcast.MsgID) bool
	visit = func(id amcast.MsgID) bool {
		color[id] = gray
		stack = append(stack, id)
		for _, s := range succ[id] {
			switch color[s] {
			case gray:
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == s {
						cycle = append([]amcast.MsgID(nil), stack[i:]...)
						return true
					}
				}
			case white:
				if visit(s) {
					return true
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[id] = black
		return false
	}
	for id := range succ {
		if color[id] == white && visit(id) {
			return cycle
		}
	}
	return nil
}

// requireClean asserts a fig5 run upholds every checked invariant —
// integrity, agreement, pairwise prefix order AND global acyclicity.
// On an acyclicity violation it extracts the delivery cycle for the
// failure message, the shape the pre-fix staircase ring used to take
// (scripted shrink: core.TestFreshRequestRingCycle).
func requireClean(t *testing.T, seed int64, res *chaos.ScheduleResult) {
	t.Helper()
	if err := res.Err; err != nil {
		if ring := findDeliveryCycle(res.Trace); ring != nil {
			t.Fatalf("seed %d: %v\ndelivery cycle (length %d): %v", seed, err, len(ring), ring)
		}
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// TestFig5KnownRingSignature replays the formerly-open repro
// flexgrid -cells '^fig5-verify/seed=2$'. Before the
// re-certification fix (DESIGN.md §4 deviation 8) this seed
// deterministically formed a fresh-request staircase ring: an
// acyclic-order violation invisible to integrity, agreement and
// pairwise prefix order. The NOTIF certification epochs close that
// window, so the exact historical repro must now run fully clean.
func TestFig5KnownRingSignature(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5-scale replay; skipped in -short")
	}
	requireClean(t, 2, fig5(t, 2, 250_000))
}

// TestFig5RingWithoutFlushGC reruns seed 2 with the flush client
// disabled entirely. Pre-fix, the ring still formed without any
// flush/GC traffic — which is what pinned the hole on the base
// NOTIF/flush-ack ordering machinery rather than §4.3 garbage
// collection (the historical "flush-GC bug" label was a
// misattribution). The fix lives in that base machinery, so this
// variant must be clean too.
func TestFig5RingWithoutFlushGC(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5-scale replay; skipped in -short")
	}
	requireClean(t, 2, fig5(t, 2, -1))
}

// TestFig5SeedSweep sweeps seeds 1–32 of the exact fig5 configuration
// and requires every run fully clean. Pre-fix, seeds 2 and 4 of the
// first eight formed the staircase ring — it needs a precise
// coincidence where k ≥ 5 rank-chained two-destination messages are
// each delivered on the lca fast path inside the in-flight window of
// their ring predecessor's MSG, every covering flush ack beats its
// group's inversion, and the duplicate-NOTIF fold suppresses the one
// late re-certification. The widened sweep (4× the pre-fix range)
// guards the fix against timing-sensitive recurrence.
//
// The sweep also checks the closed rule (core.WalkCheck, as in
// TestClosedWalkAgreesWithFullWalk) on every canDeliver: of the whole
// sweep without -race; under its slowdown, of seeds 1–4 (the two
// historical ring seeds among them).
func TestFig5SeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5-scale seed sweep; skipped in -short")
	}
	walked := int64(32)
	if prototest.RaceEnabled() {
		walked = 4
	}
	w := checkWalks(t)
	for seed := int64(1); seed <= 32; seed++ {
		if seed == walked+1 {
			core.WalkCheck.Store(nil)
		}
		requireClean(t, seed, fig5(t, seed, 250_000))
	}
	w.require(t)
}
