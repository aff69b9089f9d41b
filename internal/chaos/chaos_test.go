package chaos_test

import (
	"reflect"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/chaos"
	"flexcast/internal/deploy"
	"flexcast/internal/overlay"
)

// deployment resolves spec through the protocol table, as every chaos
// deployment is.
func deployment(spec deploy.Spec) chaos.Deployment {
	dep, err := deploy.New(spec)
	if err != nil {
		panic(err)
	}
	return chaos.Deployment{Deployment: dep}
}

// flexDeployment is FlexCast on a chain C-DAG over groups (in id order).
func flexDeployment(groups []amcast.GroupID) chaos.Deployment {
	return deployment(deploy.Spec{Protocol: deploy.FlexCast, Overlay: overlay.MustCDAG(groups)})
}

func skeenDeployment(groups []amcast.GroupID) chaos.Deployment {
	return deployment(deploy.Spec{Protocol: deploy.Skeen, Groups: len(groups)})
}

func treeDeployment() chaos.Deployment {
	return deployment(deploy.Spec{Protocol: deploy.Hierarchical, Tree: overlay.MustTree(1, map[amcast.GroupID][]amcast.GroupID{
		1: {2, 3},
		2: {4, 5},
	})})
}

var groups5 = []amcast.GroupID{1, 2, 3, 4, 5}

// TestExploreAllProtocolsClean is the heart of the subsystem's promise:
// under retransmission delays, duplication, jitter, transient partitions
// and crash/recovery, every protocol upholds all safety properties on
// every explored schedule — and the schedules really do contain faults.
func TestExploreAllProtocolsClean(t *testing.T) {
	deps := []chaos.Deployment{flexDeployment(groups5), skeenDeployment(groups5), treeDeployment()}
	for _, d := range deps {
		d := d
		t.Run(d.Protocol.String(), func(t *testing.T) {
			rep, err := chaos.Explore(d, chaos.Options{Seed: 1, Schedules: 30})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				var sb strings.Builder
				rep.Print(&sb)
				t.Fatalf("invariant violations:\n%s", sb.String())
			}
			if rep.Faults.Crashes == 0 || rep.Faults.Retransmits == 0 || rep.Faults.Duplicates == 0 {
				t.Fatalf("exploration injected no faults: %+v", rep.Faults)
			}
			if rep.Faults.Parked == 0 {
				t.Fatalf("no envelope ever hit a crashed server (crash windows ineffective): %+v", rep.Faults)
			}
			if rep.Deliveries == 0 || rep.Multicasts == 0 {
				t.Fatalf("empty workload: %+v", rep)
			}
		})
	}
}

// TestScheduleDeterminism verifies the reproducibility contract: the same
// seed yields a bit-identical schedule result.
func TestScheduleDeterminism(t *testing.T) {
	d := flexDeployment(groups5)
	opt := chaos.Options{Seed: 42}
	a, err := chaos.RunSchedule(d, opt, 123456789)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.RunSchedule(d, opt, 123456789)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c, err := chaos.RunSchedule(d, opt, 987654321)
	if err != nil {
		t.Fatal(err)
	}
	if c.Events == a.Events && reflect.DeepEqual(c.Faults, a.Faults) {
		t.Fatalf("different seeds produced identical runs (seed unused?)")
	}
}

// TestInjectedOrderingBugCaught validates the checker pipeline end to
// end: with the test-only ordering bug enabled, exploration must report
// a violation, and the violating seed must reproduce it exactly.
func TestInjectedOrderingBugCaught(t *testing.T) {
	d := flexDeployment(groups5)
	opt := chaos.Options{Seed: 7, Schedules: 20, BugFlipEvery: 1}
	rep, err := chaos.Explore(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Fatal("ordering bug injected but no schedule reported a violation")
	}
	v := rep.Violations[0]
	if v.Err == nil || v.Seed == 0 {
		t.Fatalf("violation lacks error or seed: %+v", v)
	}
	res, err := chaos.RunSchedule(d, opt, v.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Err.Error() != v.Err.Error() {
		t.Fatalf("seed %d did not reproduce the violation: got %v, want %v", v.Seed, res.Err, v.Err)
	}
	// The bug lives behind the guard: the same seeds are clean without it.
	opt.BugFlipEvery = 0
	clean, err := chaos.Explore(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed() {
		t.Fatalf("violations without the bug hook: %v", clean.Violations[0].Err)
	}
}

// TestRecoveryExercisesSnapshots makes sure crash windows actually force
// recoveries from on-disk snapshots and WALs that the checker then
// validates — i.e. the zero-violation result of the clean test is
// meaningful.
func TestRecoveryExercisesSnapshots(t *testing.T) {
	d := flexDeployment(groups5)
	rep, err := chaos.Explore(d, chaos.Options{
		Seed:      11,
		Schedules: 10,
		Crashes:   3,
		// Long downtimes with a busy window: plenty of parked traffic.
		DowntimeMean: 600_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("violations under heavy crashing: %v", rep.Violations[0].Err)
	}
	if rep.Faults.Crashes != 30 {
		t.Fatalf("crashes = %d, want 3 per schedule × 10", rep.Faults.Crashes)
	}
	if rep.Faults.Parked == 0 {
		t.Fatal("heavy crashing parked no traffic")
	}
}

// TestRegressionSeeds pins schedules that exposed a genuine FlexCast
// ordering bug in the original engine: a destination accepted a notified
// group's flush ack that predated a later notifier's dependencies,
// allowing a global delivery cycle (fixed by pair-wise notification
// tracking; scripted replay in internal/core TestStaleNotifAckCycle).
// These exact seeds produced acyclic-order and agreement violations.
func TestRegressionSeeds(t *testing.T) {
	groups6 := []amcast.GroupID{1, 2, 3, 4, 5, 6}
	groups12 := make([]amcast.GroupID, 12)
	for i := range groups12 {
		groups12[i] = amcast.GroupID(i + 1)
	}
	cases := []struct {
		name string
		dep  chaos.Deployment
		opt  chaos.Options
		seed int64
	}{
		{"drops-6g", flexDeployment(groups6),
			chaos.Options{Seed: 1, Clients: 3, Messages: 10, DropProb: 0.2, DupProb: -1, Partitions: -1, Crashes: -1},
			4526540616823276447},
		{"all-12g", flexDeployment(groups12), chaos.Options{Seed: 1}, -3258883285024894585},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, err := chaos.RunSchedule(c.dep, c.opt, c.seed)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("regression seed %d violates invariants again: %v", c.seed, res.Err)
			}
		})
	}
}

// TestExploreValidation covers deployment validation.
func TestExploreValidation(t *testing.T) {
	if _, err := chaos.Explore(chaos.Deployment{}, chaos.Options{}); err == nil {
		t.Fatal("empty deployment accepted")
	}
	if _, err := chaos.RunSchedule(chaos.Deployment{Deployment: &deploy.Deployment{Protocol: deploy.FlexCast}}, chaos.Options{}, 1); err == nil {
		t.Fatal("deployment without groups accepted")
	}
}
