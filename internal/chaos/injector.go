package chaos

import (
	"fmt"
	"math/rand"

	"flexcast/amcast"
	"flexcast/internal/sim"
)

// FaultStats counts the faults injected into one schedule.
type FaultStats struct {
	// Retransmits counts simulated drops (envelopes delayed by a
	// retransmission backoff).
	Retransmits int
	// Duplicates counts envelopes delivered twice.
	Duplicates int
	// PartitionHits counts envelopes delayed to a partition's heal time.
	PartitionHits int
	// Crashes counts group-server crash/recovery events executed.
	Crashes int
	// Parked counts envelopes that arrived at crashed servers and were
	// replayed on restart.
	Parked int
	// TornTails counts crashes that left a torn record at the WAL tail
	// (durable mode only); recovery must discard every one.
	TornTails int
}

// Add accumulates s2 into s.
func (s *FaultStats) Add(s2 FaultStats) {
	s.Retransmits += s2.Retransmits
	s.Duplicates += s2.Duplicates
	s.PartitionHits += s2.PartitionHits
	s.Crashes += s2.Crashes
	s.Parked += s2.Parked
	s.TornTails += s2.TornTails
}

// window is a half-open interval of simulated time.
type window struct {
	from, to amcast.NodeID  // partition links only
	group    amcast.GroupID // crash windows only
	start    sim.Time
	end      sim.Time
	// torn marks a durable-mode crash that leaves a partial record at
	// the WAL tail.
	torn bool
}

// maxTraceEvents bounds the per-schedule fault trace kept for reports.
const maxTraceEvents = 64

// injector draws every fault of one schedule from a seeded source: the
// partition and crash windows are fixed up front, per-envelope faults are
// drawn in deterministic simulator order.
type injector struct {
	opt        Options
	rng        *rand.Rand
	s          *sim.Simulator
	partitions []window
	crashes    []window
	stats      FaultStats
	trace      []string
	truncated  int
}

// newInjector pre-draws the schedule's partition and crash windows.
// Crash windows use distinct groups, so no group crashes twice and
// windows never overlap on one server.
func newInjector(opt Options, groups []amcast.GroupID, rng *rand.Rand, s *sim.Simulator) *injector {
	inj := &injector{opt: opt, rng: rng, s: s}
	for i := 0; i < opt.Partitions && len(groups) >= 2; i++ {
		a := groups[rng.Intn(len(groups))]
		b := groups[rng.Intn(len(groups))]
		for b == a {
			b = groups[rng.Intn(len(groups))]
		}
		start := sim.Time(rng.Int63n(int64(opt.InjectWindow)))
		dur := opt.PartitionMean/2 + sim.Time(rng.Int63n(int64(opt.PartitionMean)))
		inj.partitions = append(inj.partitions, window{
			from: amcast.GroupNode(a), to: amcast.GroupNode(b),
			start: start, end: start + dur,
		})
		inj.note(start, "partition %s->%s for %dµs", amcast.GroupNode(a), amcast.GroupNode(b), dur)
	}
	nCrashes := opt.Crashes
	if nCrashes > len(groups) {
		nCrashes = len(groups)
	}
	perm := rng.Perm(len(groups))
	for i := 0; i < nCrashes; i++ {
		g := groups[perm[i]]
		start := sim.Time(rng.Int63n(int64(opt.InjectWindow)))
		dur := opt.DowntimeMean/2 + sim.Time(rng.Int63n(int64(opt.DowntimeMean)))
		torn := opt.Durable && opt.TornTailProb > 0 && rng.Float64() < opt.TornTailProb
		inj.crashes = append(inj.crashes, window{group: g, start: start, end: start + dur, torn: torn})
		if torn {
			inj.note(start, "crash %s for %dµs (torn WAL tail)", amcast.GroupNode(g), dur)
		} else {
			inj.note(start, "crash %s for %dµs", amcast.GroupNode(g), dur)
		}
	}
	return inj
}

// perEnvelope reports whether any per-transmission fault class is on;
// a schedule with none installs no fault hook on its network.
func (inj *injector) perEnvelope() bool {
	o := inj.opt
	return o.DropProb > 0 || o.DupProb > 0 || o.JitterMax > 0 || len(inj.partitions) > 0
}

// Fault implements sim.FaultFunc.
func (inj *injector) Fault(from, to amcast.NodeID, env amcast.Envelope) sim.LinkFault {
	var f sim.LinkFault
	now := inj.s.Now()
	// Transient partition: the envelope is held back (sender-side
	// retransmission) until just after the heal.
	jitterMax := inj.opt.JitterMax
	if jitterMax < 0 {
		jitterMax = 0
	}
	for _, w := range inj.partitions {
		if w.from == from && w.to == to && now >= w.start && now < w.end {
			f.Delay += w.end - now + sim.Time(inj.rng.Int63n(int64(jitterMax)+1))
			inj.stats.PartitionHits++
		}
	}
	if inj.rng.Float64() < inj.opt.DropProb {
		f.Delay += inj.opt.RetransmitDelay + sim.Time(inj.rng.Int63n(int64(inj.opt.RetransmitDelay)))
		inj.stats.Retransmits++
		inj.note(now, "retransmit %s %s %s->%s", env.Kind, env.Msg.ID, from, to)
	}
	if jitterMax > 0 {
		f.Delay += sim.Time(inj.rng.Int63n(int64(jitterMax)))
	}
	if inj.rng.Float64() < inj.opt.DupProb {
		f.Duplicates = 1
		inj.stats.Duplicates++
		inj.note(now, "duplicate %s %s %s->%s", env.Kind, env.Msg.ID, from, to)
	}
	return f
}

// note appends one bounded fault-trace line.
func (inj *injector) note(at sim.Time, format string, args ...interface{}) {
	if len(inj.trace) >= maxTraceEvents {
		inj.truncated++
		return
	}
	inj.trace = append(inj.trace, fmt.Sprintf("t=%-8d %s", at, fmt.Sprintf(format, args...)))
}

// FaultTrace returns the recorded fault events, noting truncation.
func (inj *injector) FaultTrace() []string {
	t := append([]string(nil), inj.trace...)
	if inj.truncated > 0 {
		t = append(t, fmt.Sprintf("... %d more fault events elided", inj.truncated))
	}
	return t
}
