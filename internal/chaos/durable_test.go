package chaos_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/chaos"
	"flexcast/internal/sim"
)

// TestDurableKillRestartSchedules runs crash/recovery exploration over
// the real durable backend: every crashed group logs its inputs to an
// on-disk WAL with periodic snapshot rotation, every crash abandons the
// files exactly as kill -9 would (about half of them tearing the WAL
// tail mid-record), and every recovery rebuilds a completely fresh
// engine from the directory. The per-recovery audits — torn tail
// discarded, replay bounded by the snapshot cadence, recovered state
// byte-equal to the crashed engine's final state — plus the full trace
// checkers must all hold on every schedule.
func TestDurableKillRestartSchedules(t *testing.T) {
	deps := []chaos.Deployment{flexDeployment(groups5), skeenDeployment(groups5), treeDeployment()}
	for _, d := range deps {
		d := d
		t.Run(d.Protocol.String(), func(t *testing.T) {
			rep, err := chaos.Explore(d, chaos.Options{
				Seed:      3,
				Schedules: 10,
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
// recovery from disk: real file I/O, torn-tail injection and disk
// recovery must not perturb the schedule — the same seed yields a
// bit-identical result.
func TestDurableScheduleDeterminism(t *testing.T) {
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
	if a.Faults.Crashes == 0 {
		t.Fatalf("the schedule crashed nothing: %+v", a.Faults)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same durable seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestDurableRequiresDecode pins the configuration contract: a schedule
// with crashes and no snapshot decoder is a deployment error, not a
// panic deep inside recovery, while a crash-free one needs no decoder.
// And only the groups a schedule crashes persist: its directory holds
// group-N for exactly the groups its fault trace crashes.
func TestDurableRequiresDecode(t *testing.T) {
	d := flexDeployment(groups5)
	d.DecodeSnapshot = nil
	if _, err := chaos.RunSchedule(d, chaos.Options{}, 1); err == nil {
		t.Fatal("a crash schedule without Decode accepted")
	}
	res, err := chaos.RunSchedule(d, chaos.Options{Crashes: -1}, 1)
	if err != nil {
		t.Fatalf("a crash-free schedule without Decode: %v", err)
	}
	if res.Err != nil || res.Deliveries == 0 {
		t.Fatalf("the crash-free schedule: %v, %d deliveries", res.Err, res.Deliveries)
	}

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var persisted []string
	d = flexDeployment(groups5)
	d.Instrument = func(map[amcast.GroupID]amcast.Engine, func() sim.Time) *chaos.Instrumentation {
		return &chaos.Instrumentation{
			Rebind: func(amcast.GroupID, amcast.Engine) error { return nil },
			// PostCheck runs before the schedule removes its directory.
			PostCheck: func() error {
				dirs, err := filepath.Glob(filepath.Join(tmp, "chaos-durable-*", "group-*"))
				for _, dir := range dirs {
					persisted = append(persisted, filepath.Base(dir))
				}
				return err
			},
		}
	}
	res, err = chaos.RunSchedule(d, chaos.Options{Crashes: 3}, 1)
	if err != nil || res.Err != nil {
		t.Fatalf("instrumented crash schedule: %v, %v", err, res.Err)
	}
	var crashed []string
	crash := regexp.MustCompile(`crash g(\d+) for`)
	for _, line := range res.FaultTrace {
		if m := crash.FindStringSubmatch(line); m != nil {
			crashed = append(crashed, "group-"+m[1])
		}
	}
	slices.Sort(crashed)
	if len(crashed) != 3 || !slices.Equal(persisted, crashed) {
		t.Fatalf("persisted %v, the fault trace crashed %v", persisted, crashed)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("the schedule left %d entries in its temporary directory", len(left))
	}

	d.Instrument = func(map[amcast.GroupID]amcast.Engine, func() sim.Time) *chaos.Instrumentation {
		return &chaos.Instrumentation{}
	}
	if _, err := chaos.RunSchedule(d, chaos.Options{}, 1); err == nil {
		t.Fatal("a crash schedule with instrumentation but no Rebind accepted")
	}
}

// amnesiac loses what it restores: a recovery from disk keeps only the
// inputs it replayed behind the last snapshot.
type amnesiac struct{ amcast.SnapshotEngine }

func (amnesiac) Restore(amcast.Snapshot) error { return nil }

// counting counts the envelopes its engine is handed.
type counting struct {
	amcast.SnapshotEngine
	steps int
}

func (c *counting) OnEnvelope(env amcast.Envelope) []amcast.Output {
	c.steps++
	return c.SnapshotEngine.OnEnvelope(env)
}

// TestRecoveryDivergenceFails: the byte-equality audit is what proves a
// recovery complete, so a recovered engine that lost state must fail
// its schedule, naming the divergence. The failed group stays down:
// the engine it crashed with is not stepped after its recovery was
// built (nor is the rejected one installed).
func TestRecoveryDivergenceFails(t *testing.T) {
	d := skeenDeployment(groups5)
	build := d.NewEngine
	built := map[amcast.GroupID][]*counting{}
	stepsAtRebuild := map[amcast.GroupID]int{}
	d.NewEngine = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
		eng, err := build(g)
		c := &counting{SnapshotEngine: amnesiac{eng}}
		if len(built[g]) == 1 {
			stepsAtRebuild[g] = built[g][0].steps
		}
		built[g] = append(built[g], c)
		return c, err
	}
	res, err := chaos.RunSchedule(d, chaos.Options{Seed: 1, SnapshotEvery: 1, Crashes: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Crashes == 0 || res.Err == nil || !strings.Contains(res.Err.Error(), "diverged from the crashed engine's final state") {
		t.Fatalf("%d crashes of a lossy engine: %v", res.Faults.Crashes, res.Err)
	}
	if len(stepsAtRebuild) == 0 {
		t.Fatal("no group was rebuilt")
	}
	for g, at := range stepsAtRebuild {
		if got := built[g][0].steps; got != at {
			t.Errorf("group %d: its crashed engine took %d envelopes after the recovery was built", g, got-at)
		}
	}
}
