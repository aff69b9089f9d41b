package sim_test

import (
	"math/rand"
	"sort"
	"testing"

	"flexcast/internal/prototest"
	"flexcast/internal/sim"
)

// TestEventOrderIsTotal: events scheduled at random times with many
// ties, some of them from inside other events, fire in exactly the order
// of sorting them by (time, scheduling order) — the key the simulator's
// determinism rests on, whatever shape the heap is in.
func TestEventOrderIsTotal(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		type sched struct {
			at  sim.Time
			seq int
		}
		var scheduled []sched
		var fired []int
		var schedule func(at sim.Time, depth int)
		schedule = func(at sim.Time, depth int) {
			seq := len(scheduled)
			if at < s.Now() {
				at = s.Now() // ScheduleAt clamps to Now
			}
			scheduled = append(scheduled, sched{at, seq})
			s.ScheduleAt(at, func() {
				if s.Now() != at {
					t.Fatalf("seed %d: event %d scheduled for %d fired at %d", seed, seq, at, s.Now())
				}
				fired = append(fired, seq)
				for k := rng.Intn(3); depth < 4 && k > 0; k-- {
					schedule(s.Now()+sim.Time(rng.Intn(4))-1, depth+1)
				}
			})
		}
		for i := 0; i < 50+rng.Intn(200); i++ {
			schedule(sim.Time(rng.Intn(20)), 0) // few distinct times: many ties
		}
		s.Run()
		want := append([]sched(nil), scheduled...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(fired) != len(want) {
			t.Fatalf("seed %d: %d of %d events fired", seed, len(fired), len(want))
		}
		for i, w := range want {
			if fired[i] != w.seq {
				t.Fatalf("seed %d: event %d fired %d-th, want event %d (at %d)", seed, fired[i], i, w.seq, w.at)
			}
		}
	}
}

// TestAllocBudgetScheduleStep: scheduling an event and running it
// allocates nothing beyond the caller's closure — the queue holds events
// by value.
func TestAllocBudgetScheduleStep(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	s := sim.New()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < 64; i++ { // grow the queue once
		s.Schedule(sim.Time(i), fn)
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		s.ScheduleAt(s.Now()+1, fn)
		s.ScheduleAt(s.Now()+1, fn)
		s.RunFor(1)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per two events, want 0", allocs)
	}
	if fired != 64+2*1001 {
		t.Fatalf("%d events fired, want %d", fired, 64+2*1001)
	}
}
