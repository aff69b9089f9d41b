package chaos_test

import (
	"strings"
	"testing"

	"flexcast/internal/chaos"
)

// TestClosedLoopExploreClean exercises the closed-loop workload mode:
// clients chain each multicast to the previous completion, so the
// schedule stays densely loaded relative to the protocol's own progress
// while faults hit delivery, ack and flush phases that overlap far more
// than under the open-loop injector. Every safety property must still
// hold, the full workload must complete (closed-loop chaining survives
// crashes and partitions), and the runs must stay deterministic.
func TestClosedLoopExploreClean(t *testing.T) {
	deps := []chaos.Deployment{flexDeployment(groups5), skeenDeployment(groups5), treeDeployment()}
	for _, d := range deps {
		d := d
		t.Run(d.Protocol.String(), func(t *testing.T) {
			opt := chaos.Options{Seed: 3, Schedules: 15, ClosedLoop: true, Messages: 15}
			rep, err := chaos.Explore(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				var sb strings.Builder
				rep.Print(&sb)
				t.Fatalf("invariant violations:\n%s", sb.String())
			}
			if rep.Faults.Crashes == 0 || rep.Faults.Retransmits == 0 {
				t.Fatalf("exploration injected no faults: %+v", rep.Faults)
			}
			// Closed-loop chaining must drive the whole per-client budget:
			// 3 clients x 15 messages plus the flush client's chain, per
			// schedule. Agreement already checks every multicast delivered
			// everywhere; here we check none was silently never issued.
			minPerSchedule := 3*15 + 4
			if rep.Multicasts < opt.Schedules*minPerSchedule {
				t.Fatalf("closed-loop chains stalled: %d multicasts over %d schedules (want >= %d each)",
					rep.Multicasts, opt.Schedules, minPerSchedule)
			}
		})
	}
}

// TestClosedLoopDeterminism verifies reproducibility of closed-loop
// schedules: the chained issue times depend on the simulation itself,
// and they must still be a pure function of the seed.
func TestClosedLoopDeterminism(t *testing.T) {
	d := flexDeployment(groups5)
	opt := chaos.Options{Seed: 11, ClosedLoop: true, Messages: 12}
	a, err := chaos.RunSchedule(d, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.RunSchedule(d, opt, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Multicasts != b.Multicasts || a.Deliveries != b.Deliveries || a.Events != b.Events {
		t.Fatalf("closed-loop schedule not deterministic:\n a=%+v\n b=%+v", a, b)
	}
}
