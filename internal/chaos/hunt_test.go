package chaos_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"flexcast/internal/chaos"
	"flexcast/internal/deploy"
)

// TestHuntFlushGC hunts for staircase-ring regressions (the formerly
// open acyclic-order hole, DESIGN.md §4 deviation 8): dense, fault-free
// closed-loop schedules with aggressive flushing in the paper's
// environment — the WAN latency matrix plus gTPC-C destination locality
// (Options.Locality), which the random-latency, uniform-destination
// hunts cannot emulate and which the historical repro (the fig5-verify
// grid cells) depended on.
// Enabled via CHAOS_HUNT=<schedules> (the scheduled CI ring-hunt job
// runs it nightly); CHAOS_HUNT_RANDOM=1 falls back to the random
// environment. Any violation FAILS the test; each failing seed is
// printed for deterministic replay.
func TestHuntFlushGC(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("CHAOS_HUNT"))
	if n == 0 {
		t.Skip("set CHAOS_HUNT=<schedules> to hunt")
	}
	opts := chaos.Options{
		Seed:      7,
		Schedules: n,
		Clients:   6,
		Messages:  400,
		MaxDst:    3,
		// Aggressive GC, no faults: the known repro (the fig5-verify
		// grid cells) is fault-free.
		FlushEvery:    100_000,
		ClosedLoop:    true,
		DropProb:      -1,
		DupProb:       -1,
		JitterMax:     -1,
		Partitions:    -1,
		Crashes:       -1,
		SnapshotEvery: 1 << 30,
	}
	if os.Getenv("CHAOS_HUNT_RANDOM") == "" {
		// The fig5 cells run the global-only latency workloads at high
		// locality; 0.95 is its middle setting.
		opts.Locality = 0.95
	}
	d, err := chaos.NewDeployment(deploy.Spec{Protocol: deploy.FlexCast}, false)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := chaos.Explore(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("VIOLATION seed %d: %v", v.Seed, v.Err)
	}
	fmt.Printf("hunted %d schedules, %d multicasts, %d violations\n",
		rep.Schedules, rep.Multicasts, len(rep.Violations))
}
