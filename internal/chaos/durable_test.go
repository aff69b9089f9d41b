package chaos_test

import (
	"reflect"
	"strings"
	"testing"

	"flexcast/internal/chaos"
)

// TestDurableKillRestartSchedules runs crash/recovery exploration over
// the real durable backend: every node logs its inputs to an on-disk
// WAL with periodic snapshot rotation, every crash abandons the files
// exactly as kill -9 would (half of them tearing the WAL tail
// mid-record), and every recovery rebuilds a completely fresh engine
// from the directory. The per-recovery audits — torn tail discarded,
// replay bounded by the snapshot cadence, recovered state byte-equal to
// the crashed engine's final state — plus the full trace checkers must
// all hold on every schedule.
func TestDurableKillRestartSchedules(t *testing.T) {
	deps := []chaos.Deployment{flexDeployment(groups5), skeenDeployment(groups5), treeDeployment()}
	for _, d := range deps {
		d := d
		t.Run(d.Protocol.String(), func(t *testing.T) {
			rep, err := chaos.Explore(d, chaos.Options{
				Seed:      3,
				Schedules: 10,
				Durable:   true,
				Crashes:   3,
				// Long downtimes so recovered nodes face real parked
				// backlogs, not just quiet restarts.
				DowntimeMean: 600_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				var sb strings.Builder
				rep.Print(&sb)
				t.Fatalf("invariant violations over the durable backend:\n%s", sb.String())
			}
			if rep.Faults.Crashes == 0 {
				t.Fatalf("no crash ever executed: %+v", rep.Faults)
			}
			if rep.Faults.TornTails == 0 {
				t.Fatalf("no crash tore the WAL tail (injection ineffective): %+v", rep.Faults)
			}
			if rep.Faults.TornTails >= rep.Faults.Crashes {
				t.Fatalf("every crash tore the tail — both recovery shapes must be explored: %+v", rep.Faults)
			}
			if rep.Faults.Parked == 0 {
				t.Fatalf("no envelope ever hit a crashed server: %+v", rep.Faults)
			}
		})
	}
}

// TestDurableScheduleDeterminism extends the reproducibility contract to
// durable mode: real file I/O, torn-tail injection and disk recovery
// must not perturb the schedule — the same seed yields a bit-identical
// result.
func TestDurableScheduleDeterminism(t *testing.T) {
	d := flexDeployment(groups5)
	opt := chaos.Options{Seed: 42, Durable: true}
	a, err := chaos.RunSchedule(d, opt, 123456789)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.RunSchedule(d, opt, 123456789)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same durable seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestDurableRequiresDecode pins the configuration contract: durable
// mode without a snapshot decoder is a deployment error, not a panic
// deep inside recovery.
func TestDurableRequiresDecode(t *testing.T) {
	d := flexDeployment(groups5)
	d.DecodeSnapshot = nil
	if _, err := chaos.RunSchedule(d, chaos.Options{Durable: true}, 1); err == nil {
		t.Fatal("durable deployment without Decode accepted")
	}
}
