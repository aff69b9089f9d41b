package chaos_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/chaos"
	"flexcast/internal/deploy"
	"flexcast/internal/sim"
	"flexcast/internal/wan"
)

// The paper's measured runs are timed, fault-free schedules
// (Options.Duration); these tests check what the measurement adds to a
// schedule — the trimmed window, per-destination latencies, traffic
// counters, the processing-cost model — and the protocol properties the
// paper's figures rest on.

var protocols = []deploy.Protocol{deploy.FlexCast, deploy.Skeen, deploy.Hierarchical}

// timed runs protocol p for opt.Duration on the paper's overlays,
// checked (RunSchedule) or not (Measure).
func timed(t *testing.T, p deploy.Protocol, opt chaos.Options, checked bool) *chaos.ScheduleResult {
	t.Helper()
	d, err := chaos.NewDeployment(deploy.Spec{Protocol: p}, false)
	if err != nil {
		t.Fatal(err)
	}
	run := chaos.Measure
	if checked {
		run = chaos.RunSchedule
	}
	res, err := run(d, opt, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("%s: %v", p, res.Err)
	}
	return res
}

// small is a timed run small enough for unit tests but large enough to
// exercise cross-message dependencies.
func small() chaos.Options {
	return chaos.Options{
		Locality:   0.90,
		Clients:    36,
		GlobalOnly: true,
		Duration:   3_000_000, // 3 virtual seconds
		Seed:       1,
	}
}

func TestRunCheckedAllProtocols(t *testing.T) {
	for _, p := range protocols {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			res := timed(t, p, small(), true)
			if res.Completed == 0 {
				t.Fatal("no transactions completed in the measurement window")
			}
			if res.PerDest[0].Len() == 0 {
				t.Fatal("no first-destination latencies recorded")
			}
			if got := res.PerDest[0].Percentile(50); math.IsNaN(got) || got <= 0 {
				t.Fatalf("implausible median first-destination latency: %v", got)
			}
			t.Logf("%s: completed=%d p90(1st)=%.1fms events=%d",
				p, res.Completed, res.PerDest[0].Percentile(90)/1000, res.Events)
		})
	}
}

func TestFlexCastWithFlushGC(t *testing.T) {
	opt := small()
	opt.FlushEvery = 300_000 // flush every 0.3 virtual seconds
	if res := timed(t, deploy.FlexCast, opt, true); res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
}

func TestGenuineProtocolsHaveZeroOverhead(t *testing.T) {
	for _, p := range []deploy.Protocol{deploy.FlexCast, deploy.Skeen} {
		// Drained runs: messages still in flight at the horizon would
		// otherwise count as received-but-undelivered.
		for g, c := range timed(t, p, small(), true).Traffic {
			if ov := c.Overhead(); ov != 0 {
				t.Errorf("%s: group %d has overhead %.3f, want 0", p, g, ov)
			}
		}
	}
}

func TestHierarchicalHasOverhead(t *testing.T) {
	total := 0.0
	for _, c := range timed(t, deploy.Hierarchical, small(), false).Traffic {
		total += c.Overhead()
	}
	if total == 0 {
		t.Fatal("hierarchical protocol shows zero overhead everywhere; relaying not happening")
	}
}

// TestAllProtocolsDeliverTheSameMessageSets runs the identical workload
// (same seed, same clients) through all three protocols and checks that
// every group delivers exactly the same set of messages under each —
// the protocols may order differently, but Validity/Agreement make the
// delivered sets a pure function of the workload.
func TestAllProtocolsDeliverTheSameMessageSets(t *testing.T) {
	sets := make(map[deploy.Protocol]map[amcast.GroupID][]amcast.MsgID)
	for _, p := range protocols {
		res := timed(t, p, chaos.Options{
			Locality:   0.90,
			Clients:    24,
			GlobalOnly: true,
			Duration:   2_000_000,
			Seed:       99,
		}, true)
		perGroup := make(map[amcast.GroupID][]amcast.MsgID)
		for _, g := range wan.Groups() {
			seq := res.Trace.Sequence(g)
			sort.Slice(seq, func(i, j int) bool { return seq[i] < seq[j] })
			perGroup[g] = seq
		}
		sets[p] = perGroup
	}
	// Closed-loop clients complete transactions at protocol-dependent
	// speeds, so the number of issued messages per client differs across
	// protocols. The generator stream per client is seed-deterministic,
	// so the comparable population is the per-client common prefix:
	// messages with seq <= min over protocols of that client's highest
	// delivered seq. Restricted to that population, the delivered sets
	// must be identical per group.
	maxSeq := make(map[deploy.Protocol]map[int]uint64)
	for p, perGroup := range sets {
		m := make(map[int]uint64)
		for _, seq := range perGroup {
			for _, id := range seq {
				m[id.Client()] = max(m[id.Client()], id.Seq())
			}
		}
		maxSeq[p] = m
	}
	common := make(map[int]uint64)
	for c, s := range maxSeq[deploy.FlexCast] {
		for _, p := range protocols[1:] {
			s = min(s, maxSeq[p][c])
		}
		common[c] = s
	}
	restrict := func(seq []amcast.MsgID) map[amcast.MsgID]bool {
		out := make(map[amcast.MsgID]bool)
		for _, id := range seq {
			if id.Seq() <= common[id.Client()] {
				out[id] = true
			}
		}
		return out
	}
	for _, g := range wan.Groups() {
		ref := restrict(sets[deploy.FlexCast][g])
		for _, p := range protocols[1:] {
			if got := restrict(sets[p][g]); !reflect.DeepEqual(got, ref) {
				t.Fatalf("group %d: %s delivered %d common-prefix messages, FlexCast %d, or other ones",
					g, p, len(got), len(ref))
			}
		}
	}
}

// TestFlushKeepsHistoriesBounded runs FlexCast long enough for several
// flush cycles and verifies the flush mechanism's purpose (§4.3): live
// history size stays bounded instead of growing with the run.
func TestFlushKeepsHistoriesBounded(t *testing.T) {
	run := func(flush, dur sim.Time) int {
		res := timed(t, deploy.FlexCast, chaos.Options{
			Locality:   0.95,
			Clients:    60,
			GlobalOnly: true,
			Duration:   dur,
			Seed:       5,
			FlushEvery: flush,
		}, false)
		total := 0
		for _, n := range res.FinalHistoryLen {
			total += n
		}
		return total
	}
	// Without GC, history size scales with the run length; with GC it is
	// bounded by the flush period regardless of run length.
	gcShort := run(250_000, 3_000_000)
	gcLong := run(250_000, 9_000_000)
	noGCShort := run(-1, 3_000_000)
	noGCLong := run(-1, 9_000_000)
	if noGCLong < noGCShort*2 {
		t.Errorf("without GC, histories did not grow with the run: %d -> %d nodes", noGCShort, noGCLong)
	}
	if gcLong > gcShort*2 {
		t.Errorf("with GC, histories grew with the run: %d -> %d nodes", gcShort, gcLong)
	}
	if gcLong >= noGCLong {
		t.Errorf("GC did not shrink histories: %d (gc) vs %d (no gc)", gcLong, noGCLong)
	}
}

// TestThroughputSaturatesWithProcessingCost checks the Figure-6
// mechanism in isolation: with a processing-cost model, adding clients
// beyond saturation must not increase throughput proportionally.
func TestThroughputSaturatesWithProcessingCost(t *testing.T) {
	run := func(clients int) float64 {
		return timed(t, deploy.FlexCast, chaos.Options{
			Locality:      0.99,
			Clients:       clients,
			Duration:      2_000_000,
			Seed:          3,
			ProcCostBase:  400,
			ProcCostPerKB: 900,
			FlushEvery:    250_000,
		}, false).Throughput()
	}
	low := run(24)
	high := run(480)
	if high < low {
		t.Fatalf("more clients reduced throughput below the 24-client level: %.0f -> %.0f", low, high)
	}
	// 20x the clients must NOT give anywhere near 20x the throughput once
	// saturated.
	if high > low*10 {
		t.Fatalf("no saturation: %.0f -> %.0f ops/s for 20x clients", low, high)
	}
}

// TestLatencyDistributionsAreDeterministic re-runs one configuration and
// compares full percentile rows.
func TestLatencyDistributionsAreDeterministic(t *testing.T) {
	run := func() []float64 {
		res := timed(t, deploy.FlexCast, small(), false)
		var out []float64
		for k := range res.PerDest {
			for _, p := range []float64{50, 90, 99} {
				out = append(out, res.PerDest[k].Percentile(p))
			}
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different distributions:\n%v\n%v", a, b)
	}
}

// TestUnknownProtocolRejected covers the configuration error path.
func TestUnknownProtocolRejected(t *testing.T) {
	if _, err := chaos.NewDeployment(deploy.Spec{Protocol: deploy.Protocol(99)}, false); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

// TestResultAccessors covers Throughput's edge case.
func TestResultAccessors(t *testing.T) {
	r := &chaos.ScheduleResult{}
	if r.Throughput() != 0 {
		t.Fatal("zero-window throughput not zero")
	}
}
