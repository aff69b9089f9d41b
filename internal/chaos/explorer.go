package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/sim"
	"flexcast/internal/telemetry"
	"flexcast/internal/trace"
)

// ScheduleResult is the outcome of one explored schedule.
type ScheduleResult struct {
	// Seed reproduces the schedule exactly via RunSchedule.
	Seed int64
	// Multicasts and Deliveries count the workload.
	Multicasts int
	Deliveries int
	// FastReads counts the local-read fast-path transactions issued
	// (execute-mode deployments with FastRead instrumentation).
	FastReads int
	// LeaseRefusals counts fast reads a follower replica refused for
	// want of a valid lease (its grantor crashed or the lease lapsed) —
	// correct, audited behavior, kept visible because a schedule that
	// never refuses has not exercised the lease gate.
	LeaseRefusals int
	// Events is the number of simulator events executed.
	Events uint64
	// Faults counts the injected faults.
	Faults FaultStats
	// Err is the first invariant violation (nil for a clean schedule).
	Err error
	// FaultTrace is the schedule's fault log, kept for failure reports.
	FaultTrace []string
	// Stages is the schedule's sim-time lifecycle decomposition (nil
	// when Options.TraceSample disabled tracing or nothing completed);
	// its durations are simulated nanoseconds. Deterministic per seed.
	Stages *telemetry.StagesReport
}

// Report aggregates one exploration run.
type Report struct {
	// Deployment is the protocol label.
	Deployment string
	// Schedules is the number of schedules explored.
	Schedules int
	// Multicasts, Deliveries, FastReads, LeaseRefusals and Events
	// aggregate the workload.
	Multicasts    int
	Deliveries    int
	FastReads     int
	LeaseRefusals int
	Events        uint64
	// Faults aggregates the injected faults.
	Faults FaultStats
	// Violations holds every schedule that failed a safety check.
	Violations []ScheduleResult
	// Tracer aggregates every schedule's lifecycle tracer and Stages is
	// its serialized decomposition (submit → delivery → completion, in
	// simulated nanoseconds); both nil when tracing is disabled.
	Tracer *telemetry.Tracer
	Stages *telemetry.StagesReport
	// minimality records whether the genuineness audit ran (Print).
	minimality bool
	// bugFlip, closedLoop and messages echo the options so the printed
	// reproduce command includes every flag that shaped the schedule.
	bugFlip    int
	closedLoop bool
	messages   int
}

// Failed reports whether any schedule violated an invariant.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Print renders the report; violations come with their seed and fault
// trace so they can be replayed.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "chaos %-12s  schedules=%d multicasts=%d deliveries=%d fast-reads=%d lease-refusals=%d events=%d\n",
		r.Deployment, r.Schedules, r.Multicasts, r.Deliveries, r.FastReads, r.LeaseRefusals, r.Events)
	fmt.Fprintf(w, "  faults: retransmits=%d duplicates=%d partition-hits=%d crashes=%d parked=%d torn-tails=%d\n",
		r.Faults.Retransmits, r.Faults.Duplicates, r.Faults.PartitionHits, r.Faults.Crashes, r.Faults.Parked, r.Faults.TornTails)
	if st := r.Stages; st != nil {
		fmt.Fprintf(w, "  stages (1 in %d sampled, %d records, virtual time): e2e p50 %v p99 %v\n",
			st.SampleEvery, st.Records, time.Duration(st.E2E.P50), time.Duration(st.E2E.P99))
		for _, sg := range st.Stages {
			fmt.Fprintf(w, "    %-10s p50 %10v  p99 %10v  max %10v\n",
				sg.Stage, time.Duration(sg.P50), time.Duration(sg.P99), time.Duration(sg.Max))
		}
	}
	if !r.Failed() {
		fmt.Fprintf(w, "  invariants: OK (acyclic order, agreement, integrity, prefix order%s)\n",
			map[bool]string{true: ", minimality"}[r.minimality])
		return
	}
	fmt.Fprintf(w, "  INVARIANT VIOLATIONS: %d\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  seed %d: %v\n", v.Seed, v.Err)
		flags := ""
		if r.bugFlip > 0 {
			flags += fmt.Sprintf(" -chaos-bug %d", r.bugFlip)
		}
		if r.closedLoop {
			flags += " -closed-loop"
		}
		if r.messages > 0 {
			flags += fmt.Sprintf(" -messages %d", r.messages)
		}
		fmt.Fprintf(w, "    reproduce: flexbench -protocol %s -repro-seed %d%s\n", r.Deployment, v.Seed, flags)
		for _, line := range v.FaultTrace {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
}

// Explore runs opt.Schedules seeded schedules of the deployment and
// aggregates the results. A violation does not stop exploration: every
// failing seed is collected so the report is a complete picture.
func Explore(d Deployment, opt Options) (*Report, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	opt.fill()
	rep := &Report{Deployment: d.Name, Schedules: opt.Schedules, minimality: d.Minimality,
		bugFlip: opt.BugFlipEvery, closedLoop: opt.ClosedLoop, messages: opt.Messages}
	for i := 0; i < opt.Schedules; i++ {
		res, tracer, err := runScheduleTraced(d, opt, ScheduleSeed(opt.Seed, i))
		if err != nil {
			return nil, err
		}
		rep.Multicasts += res.Multicasts
		rep.Deliveries += res.Deliveries
		rep.FastReads += res.FastReads
		rep.LeaseRefusals += res.LeaseRefusals
		rep.Events += res.Events
		rep.Faults.Add(res.Faults)
		if tracer != nil {
			if rep.Tracer == nil {
				rep.Tracer = telemetry.NewTracer(tracer.SampleEvery(), nil)
			}
			rep.Tracer.Merge(tracer)
		}
		if res.Err != nil {
			rep.Violations = append(rep.Violations, *res)
		}
	}
	rep.Stages = rep.Tracer.Report()
	return rep, nil
}

// readIssuer issues seeded fast-path transactions through the
// deployment's FastRead instrumentation — each read at its client's own
// session barrier (the call table's observed prefix: reply sequence
// numbers plus piggybacked watermarks), so read-your-writes is exercised
// under the full fault model, across whichever replica the
// instrumentation routes the read to.
type readIssuer struct {
	rng    *rand.Rand
	prob   float64
	read   func(rng *rand.Rand, g amcast.GroupID, barrier uint64, now sim.Time) (bool, error)
	now    func() sim.Time
	prefix amcast.PrefixTracker // the client's calls.Prefix
	res    *ScheduleResult
	fail   func(err error)
}

// newReadIssuer returns nil when the deployment has no fast-read hook
// or reads are disabled.
func newReadIssuer(instr *Instrumentation, opt Options, s *sim.Simulator, seed int64, client int, prefix amcast.PrefixTracker, res *ScheduleResult, fail func(error)) *readIssuer {
	if instr == nil || instr.FastRead == nil || opt.FastReadProb <= 0 {
		return nil
	}
	return &readIssuer{
		rng:    rand.New(rand.NewSource(ScheduleSeed(seed, 5000+client))),
		prob:   opt.FastReadProb,
		read:   instr.FastRead,
		now:    s.Now,
		prefix: prefix,
		res:    res,
		fail:   fail,
	}
}

// onReply, called for every reply the client's table has folded into the
// session barrier (stale and duplicate replies included — they still
// witness a delivered prefix), issues with the configured probability a
// fast-path read at the replying group's barrier. Lease refusals are
// counted, never failed: a follower that refuses after losing its
// grantor is behaving exactly as specified.
func (ri *readIssuer) onReply(env amcast.Envelope, progress client.Progress) {
	if ri == nil || progress == client.NotReply {
		return
	}
	if ri.rng.Float64() >= ri.prob {
		return
	}
	g := env.From.Group()
	ri.res.FastReads++
	served, err := ri.read(ri.rng, g, ri.prefix.Prefix(g), ri.now())
	if err != nil {
		ri.fail(fmt.Errorf("fast read at group %d: %w", g, err))
		return
	}
	if !served {
		ri.res.LeaseRefusals++
	}
}

// loopClient is one closed-loop workload source: it issues its next
// multicast as soon as the previous one completed at every destination
// (the call table folds the duplicate and stale replies faults inject).
type loopClient struct {
	s     *sim.Simulator
	net   *sim.Network
	rec   *trace.Recorder
	res   *ScheduleResult
	calls *client.Calls[struct{}]
	msgs  []amcast.Message
	next  int
	think sim.Time
	reads *readIssuer
	// tracer stamps sampled multicasts (nil on the flush client, whose
	// GC multicasts are not client requests).
	tracer *telemetry.Tracer
}

func (c *loopClient) issue() {
	if c.next >= len(c.msgs) {
		return
	}
	m := c.msgs[c.next]
	c.next++
	c.calls.Issue(m, struct{}{})
	c.rec.OnMulticast(m)
	c.res.Multicasts++
	c.tracer.Begin(m.ID)
	c.calls.Requests(m, func(to amcast.NodeID, env amcast.Envelope) { c.net.Send(c.calls.ID(), to, env) })
}

// HandleEnvelope implements sim.Handler: collect replies, issue the next
// multicast once the current one completed everywhere.
func (c *loopClient) HandleEnvelope(env amcast.Envelope) {
	_, progress := c.calls.Reply(env)
	c.reads.onReply(env, progress)
	if progress == client.Completed {
		c.tracer.Finish(env.Msg.ID)
		c.s.Schedule(c.think, c.issue)
	}
}

// RunSchedule runs one seeded schedule: build a fresh deployment on the
// simulator, inject the seed's faults and workload, run to quiescence,
// and check every safety property. The returned error is reserved for
// deployment problems; invariant violations land in ScheduleResult.Err.
func RunSchedule(d Deployment, opt Options, seed int64) (*ScheduleResult, error) {
	res, _, err := runScheduleTraced(d, opt, seed)
	return res, err
}

// runScheduleTraced is RunSchedule plus the schedule's live tracer, so
// Explore can merge histograms across schedules. The tracer stays off
// ScheduleResult because it holds a clock closure, which would poison
// reflect.DeepEqual-based determinism comparisons.
func runScheduleTraced(d Deployment, opt Options, seed int64) (*ScheduleResult, *telemetry.Tracer, error) {
	if err := d.validate(); err != nil {
		return nil, nil, err
	}
	opt.fill()
	rng := rand.New(rand.NewSource(seed))
	s := sim.New()
	rec := trace.NewRecorder()
	res := &ScheduleResult{Seed: seed}
	// The lifecycle tracer runs on the simulator clock, scaled to the
	// tracer's nanosecond unit (sim.Time is virtual microseconds).
	sample := opt.TraceSample
	if sample < 0 {
		sample = 0
	}
	tracer := telemetry.NewTracer(sample, func() uint64 { return uint64(s.Now()) * 1000 })
	fail := func(err error) {
		if res.Err == nil {
			res.Err = err
		}
	}

	// Random but fixed per-link latencies in [100µs, 20ms): chaos
	// explores latency topologies beyond the WAN matrix — unless a
	// fixed latency model (e.g. the WAN matrix itself) is installed.
	latency := opt.Latency
	if latency == nil {
		lat := make(map[[2]amcast.NodeID]sim.Time)
		latency = func(from, to amcast.NodeID) sim.Time {
			key := [2]amcast.NodeID{from, to}
			l, ok := lat[key]
			if !ok {
				l = sim.Time(100 + rng.Int63n(19_900))
				lat[key] = l
			}
			return l
		}
	}

	// Durable mode: every node persists through the real backend in a
	// per-schedule temporary directory, removed when the schedule ends.
	var durDir string
	if opt.Durable {
		if d.Decode == nil {
			return nil, nil, fmt.Errorf("chaos: Options.Durable requires Deployment.Decode")
		}
		dir, err := os.MkdirTemp("", "chaos-durable-")
		if err != nil {
			return nil, nil, err
		}
		durDir = dir
		defer os.RemoveAll(durDir)
	}

	inj := newInjector(opt, d.Groups, rng, s)
	netOpts := []sim.NetworkOption{
		sim.WithFaults(inj.Fault),
		sim.WithSendHook(func(from, to amcast.NodeID, env amcast.Envelope) {
			rec.OnSend(from, to, env)
		}),
	}
	if opt.Observer != nil {
		netOpts = append(netOpts, sim.WithHandleHook(opt.Observer))
	}
	net := sim.NewNetwork(s, latency, netOpts...)

	nodes := make(map[amcast.GroupID]*node, len(d.Groups))
	engines := make(map[amcast.GroupID]amcast.SnapshotEngine, len(d.Groups))
	for _, g := range d.Groups {
		eng, err := d.Factory(g)
		if err != nil {
			return nil, nil, fmt.Errorf("chaos: build engine for group %d: %w", g, err)
		}
		n := newNode(amcast.GroupNode(g), eng, net, opt.SnapshotEvery)
		n.onDeliver = func(del amcast.Delivery) error {
			res.Deliveries++
			tracer.Stamp(del.Msg.ID, telemetry.StageDeliver)
			return rec.OnDeliver(del)
		}
		n.fail = fail
		n.bugEvery = opt.BugFlipEvery
		if opt.Durable {
			g := g
			err := n.enableDurable(filepath.Join(durDir, fmt.Sprintf("group-%d", g)),
				func() (amcast.SnapshotEngine, error) { return d.Factory(g) }, d.Decode)
			if err != nil {
				return nil, nil, fmt.Errorf("chaos: durable backend for group %d: %w", g, err)
			}
		}
		nodes[g] = n
		engines[g] = eng
		net.Register(amcast.GroupNode(g), n)
	}
	var instr *Instrumentation
	if d.Instrument != nil {
		instr = d.Instrument(engines, s.Now)
		if opt.Durable {
			if instr.Rebind == nil {
				return nil, nil, fmt.Errorf("chaos: Options.Durable needs Instrumentation.Rebind (observers would stay bound to pre-crash engines)")
			}
			for g, n := range nodes {
				g := g
				n.rebind = func(eng amcast.SnapshotEngine) error { return instr.Rebind(g, eng) }
			}
		}
	}

	// Crash/recovery schedule: crash the server and park its traffic;
	// at the window's end rebuild the engine from stable storage, then
	// release the parked traffic.
	for _, w := range inj.crashes {
		w := w
		gnode := amcast.GroupNode(w.group)
		s.ScheduleAt(w.start, func() {
			n := nodes[w.group]
			n.Crash()
			if w.torn {
				if err := n.TearTail(); err != nil {
					fail(err)
				} else {
					inj.stats.TornTails++
				}
			}
			net.CrashNode(gnode)
			inj.stats.Crashes++
		})
		s.ScheduleAt(w.end, func() {
			inj.stats.Parked += net.Parked(gnode)
			if err := nodes[w.group].Recover(); err != nil {
				fail(err)
			}
			net.RestartNode(gnode)
		})
	}

	// The flush/garbage-collection client (paper §4.3): flush multicasts
	// to every group on a fixed period, so schedules exercise history
	// pruning concurrently with faults. Closed-loop schedules run as long
	// as their clients keep completing, so the flush client then chains
	// closed-loop too (one flush per completed flush plus think time),
	// keeping GC active across the whole denser run.
	if opt.FlushEvery > 0 {
		fcalls := client.NewCalls[struct{}](opt.Clients, d.Route)
		fid := fcalls.ID()
		allGroups := append([]amcast.GroupID(nil), d.Groups...)
		if opt.ClosedLoop {
			n := opt.Messages
			if n < 4 {
				n = 4
			}
			msgs := make([]amcast.Message, n)
			for i := range msgs {
				msgs[i] = fcalls.Message(uint64(i+1), allGroups, amcast.FlagFlush, nil)
			}
			lc := &loopClient{
				s: s, net: net, rec: rec, res: res,
				calls: fcalls, msgs: msgs, think: opt.FlushEvery,
			}
			net.Register(fid, lc)
			s.ScheduleAt(opt.FlushEvery, lc.issue)
		} else {
			net.Register(fid, sim.HandlerFunc(func(env amcast.Envelope) {}))
			seq := uint64(0)
			for at := opt.FlushEvery; at <= opt.InjectWindow; at += opt.FlushEvery {
				seq++
				m := fcalls.Message(seq, allGroups, amcast.FlagFlush, nil)
				rec.OnMulticast(m)
				res.Multicasts++
				at := at
				s.ScheduleAt(at, func() {
					// Fire and forget: nothing waits on an open-loop flush.
					fcalls.Requests(m, func(to amcast.NodeID, env amcast.Envelope) { net.Send(fid, to, env) })
				})
			}
		}
	}

	// Workload: every client's multicast sequence is drawn up front from
	// the schedule seed (so open- and closed-loop runs with the same seed
	// share the workload); open loop schedules them at random times,
	// closed loop chains each issue to the previous completion.
	maxDst := opt.MaxDst
	if maxDst == 0 || maxDst > len(d.Groups) {
		maxDst = len(d.Groups)
	}
	for c := 0; c < opt.Clients; c++ {
		calls := client.NewCalls[struct{}](c, d.Route)
		cid := calls.ID()
		var nextTx func(i int) ([]amcast.GroupID, []byte)
		if opt.NextTx != nil {
			nextTx = opt.NextTx(seed, c)
		}
		msgs := make([]amcast.Message, opt.Messages)
		for i := range msgs {
			var dst []amcast.GroupID
			var payload []byte
			if nextTx != nil {
				dst, payload = nextTx(i)
			} else {
				nDst := 1 + rng.Intn(maxDst)
				perm := rng.Perm(len(d.Groups))
				dst = make([]amcast.GroupID, 0, nDst)
				for _, p := range perm[:nDst] {
					dst = append(dst, d.Groups[p])
				}
				dst = amcast.NormalizeDst(dst)
				payload = []byte(fmt.Sprintf("chaos-%d-%d", c, i))
			}
			msgs[i] = calls.Message(uint64(i+1), dst, 0, payload)
		}
		reads := newReadIssuer(instr, opt, s, seed, c, calls.Prefix, res, fail)
		if opt.ClosedLoop {
			lc := &loopClient{
				s: s, net: net, rec: rec, res: res,
				calls: calls, msgs: msgs, think: opt.ThinkTime,
				reads: reads, tracer: tracer,
			}
			net.Register(cid, lc)
			start := sim.Time(rng.Int63n(int64(opt.InjectWindow)/8 + 1))
			s.ScheduleAt(start, lc.issue)
			continue
		}
		// Open loop: completions only matter to the tracer (a sampled
		// multicast finishes when every destination has replied).
		net.Register(cid, sim.HandlerFunc(func(env amcast.Envelope) {
			_, progress := calls.Reply(env)
			reads.onReply(env, progress)
			if progress == client.Completed {
				tracer.Finish(env.Msg.ID)
			}
		}))
		for i := range msgs {
			m := msgs[i]
			rec.OnMulticast(m)
			res.Multicasts++
			at := sim.Time(rng.Int63n(int64(opt.InjectWindow)))
			s.ScheduleAt(at, func() {
				calls.Issue(m, struct{}{})
				tracer.Begin(m.ID)
				calls.Requests(m, func(to amcast.NodeID, env amcast.Envelope) { net.Send(cid, to, env) })
			})
		}
	}

	s.Run()
	res.Events = s.Steps()
	res.Faults = inj.stats
	res.FaultTrace = inj.FaultTrace()

	// Durable teardown: surface any latched backend I/O error, then
	// release the file descriptors before the directory is removed.
	for _, g := range d.Groups {
		if err := nodes[g].closeDurable(); err != nil {
			fail(fmt.Errorf("group %d durable backend: %w", g, err))
		}
	}

	// Safety checks. res.Err may already hold an at-most-once violation
	// or a recovery divergence; the trace checkers add the global
	// properties, and engines exposing an internal acyclicity check (the
	// FlexCast history DAG) are audited too. The audit runs against each
	// node's current engine — durable recovery replaces engines, so the
	// build-time map can be stale.
	if res.Err == nil {
		if err := rec.CheckAll(d.Minimality); err != nil {
			res.Err = err
		}
	}
	if res.Err == nil {
		for _, g := range d.Groups {
			if c, ok := nodes[g].eng.(interface{ CheckHistoryAcyclic() error }); ok {
				if err := c.CheckHistoryAcyclic(); err != nil {
					res.Err = fmt.Errorf("group %d: %w", g, err)
					break
				}
			}
		}
	}
	// Execution-level audits (store serializability including fast
	// reads, cross-shard invariants, replica digests) on execute-mode
	// deployments.
	if res.Err == nil && instr != nil && instr.PostCheck != nil {
		res.Err = instr.PostCheck()
	}
	res.Stages = tracer.Report()
	return res, tracer, nil
}
