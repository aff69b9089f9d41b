package chaos_test

import (
	"strings"
	"testing"

	"flexcast/internal/chaos"
	"flexcast/internal/deploy"
)

// explore runs Explore on an executing deployment of protocol p and
// fails the test on any violation.
func explore(t *testing.T, p deploy.Protocol, opt chaos.Options) *chaos.Report {
	t.Helper()
	d, err := chaos.NewDeployment(deploy.Spec{Protocol: p}, true)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := chaos.Explore(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		var b strings.Builder
		rep.Print(&b)
		t.Fatalf("execute-mode schedules violated invariants:\n%s", b.String())
	}
	return rep
}

// TestChaosExecuteStoreAudits runs store-backed chaos schedules — full
// fault model including crash/recovery, so store state is rebuilt from
// snapshot + WAL — and requires every execution-level audit (read-set
// agreement, conflict serializability, cross-shard invariants, mirror
// digests) to pass alongside the multicast safety properties.
func TestChaosExecuteStoreAudits(t *testing.T) {
	for _, p := range protocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			rep := explore(t, p, chaos.Options{Seed: 11, Schedules: 6})
			if rep.Deliveries == 0 {
				t.Fatal("nothing delivered")
			}
			if rep.FastReads == 0 {
				t.Fatal("execute-mode schedules issued no fast-path reads")
			}
		})
	}
}

// TestChaosFastReadsUnderFaults drives the local-read fast path hard —
// every reply triggers a read — under the full fault model including
// crash/recovery, on both loop modes. The delivered-prefix barrier must
// hold at every read (a TryRead failure is a violation), and the
// ExecRecorder audits (fast-read containment, read-only rows, conflict
// serializability with reads merged at their cuts) must stay green.
func TestChaosFastReadsUnderFaults(t *testing.T) {
	for _, closedLoop := range []bool{false, true} {
		name := "open-loop"
		if closedLoop {
			name = "closed-loop"
		}
		t.Run(name, func(t *testing.T) {
			rep := explore(t, deploy.FlexCast, chaos.Options{
				Seed: 77, Schedules: 4,
				ClosedLoop:   closedLoop,
				FastReadProb: 1,
			})
			if rep.FastReads == 0 {
				t.Fatal("no fast reads issued")
			}
			if rep.Faults.Crashes == 0 {
				t.Fatal("schedules explored no crash/recovery alongside the reads")
			}
		})
	}
}

// TestChaosLeaseRefusalsAcrossCrashes drives follower reads under an
// aggressive crash/partition schedule: every reply triggers a read,
// half of them routed to the group's lease-holding follower replica.
// Schedules whose faults delay a reply past the lease term meet a
// lapsed lease — the group's node (the grantor) crashed or its log
// stalled mid-read — and the follower must refuse rather than serve
// stale. The test requires both outcomes to be observed (reads served
// by followers AND lease refusals), with every audit green: refusal is
// correct behavior, a stale serve would fail CheckFastReads (see
// trace.TestCheckFastReadsViolations for the detector proof).
func TestChaosLeaseRefusalsAcrossCrashes(t *testing.T) {
	rep := explore(t, deploy.FlexCast, chaos.Options{
		Seed: 42, Schedules: 8,
		ClosedLoop:   true,
		FastReadProb: 1,
		Crashes:      3,
		Partitions:   4,
	})
	if rep.Faults.Crashes == 0 {
		t.Fatal("schedules explored no crashes alongside the leased reads")
	}
	if rep.FastReads == 0 {
		t.Fatal("no reads issued")
	}
	if rep.LeaseRefusals == 0 {
		t.Fatal("no lease refusals observed — the schedules never exercised the expired-lease gate")
	}
	if rep.LeaseRefusals >= rep.FastReads {
		t.Fatalf("every read refused (%d of %d) — followers never served", rep.LeaseRefusals, rep.FastReads)
	}
}

// TestChaosExecuteClosedLoopWANProfile combines everything: the WAN
// latency matrix, gTPC-C destination locality, closed-loop saturation,
// executable payloads and the full fault model.
func TestChaosExecuteClosedLoopWANProfile(t *testing.T) {
	explore(t, deploy.FlexCast, chaos.Options{Seed: 3, Schedules: 4, ClosedLoop: true, Locality: 0.95})
}

// TestChaosExecuteDurableWANProfile is the hunt-wan-durable grid cell's
// combination (locality 0.95, execute, durable, seed 12) at two
// schedules per protocol: every crash abandons the on-disk files, every
// recovery rebuilds a fresh executor from them, and the execution audits
// (observers, lock-step follower digests) must follow the store onto the
// recovered engine (chaos.Instrumentation.Rebind).
func TestChaosExecuteDurableWANProfile(t *testing.T) {
	for _, p := range protocols {
		rep := explore(t, p, chaos.Options{Seed: 12, Schedules: 2, Durable: true, Locality: 0.95})
		if rep.Faults.Crashes == 0 || rep.FastReads == 0 {
			t.Fatalf("%s: %d crashes, %d fast reads: the combination explored nothing", p, rep.Faults.Crashes, rep.FastReads)
		}
	}
}

// TestChaosExecuteReplayMatchesExploration ensures the reproduction
// path uses the same executable workload as exploration (a replayed
// seed must rebuild the identical schedule).
func TestChaosExecuteReplayMatchesExploration(t *testing.T) {
	opt := chaos.Options{Seed: 21, Schedules: 2}
	rep := explore(t, deploy.FlexCast, opt)
	d, err := chaos.NewDeployment(deploy.Spec{Protocol: deploy.FlexCast}, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chaos.RunSchedule(d, opt, chaos.ScheduleSeed(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("replay violated invariants: %v", res.Err)
	}
	if res.Multicasts == 0 || res.Deliveries == 0 {
		t.Fatalf("replay ran empty: %+v", res)
	}
	if per := rep.Multicasts / rep.Schedules; res.Multicasts != per {
		t.Fatalf("replay issued %d multicasts, exploration %d per schedule", res.Multicasts, per)
	}
}
