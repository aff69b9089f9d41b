package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"flexcast/amcast"
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

// readIssuer tracks one client's session barrier (reply sequence
// numbers plus piggybacked watermarks) and issues seeded fast-path
// transactions through the deployment's FastRead instrumentation —
// each read at the client's own barrier, so read-your-writes is
// exercised under the full fault model, across whichever replica the
// instrumentation routes the read to.
type readIssuer struct {
	rng    *rand.Rand
	prob   float64
	read   func(rng *rand.Rand, g amcast.GroupID, barrier uint64, now sim.Time) (bool, error)
	now    func() sim.Time
	prefix amcast.PrefixTracker
	res    *ScheduleResult
	fail   func(err error)
}

// newReadIssuer returns nil when the deployment has no fast-read hook
// or reads are disabled.
func newReadIssuer(instr *Instrumentation, opt Options, s *sim.Simulator, seed int64, client int, res *ScheduleResult, fail func(error)) *readIssuer {
	if instr == nil || instr.FastRead == nil || opt.FastReadProb <= 0 {
		return nil
	}
	return &readIssuer{
		rng:    rand.New(rand.NewSource(ScheduleSeed(seed, 5000+client))),
		prob:   opt.FastReadProb,
		read:   instr.FastRead,
		now:    s.Now,
		prefix: make(amcast.PrefixTracker),
		res:    res,
		fail:   fail,
	}
}

// onReply folds one reply into the session barrier and, with the
// configured probability, issues a fast-path read at the replying
// group's barrier. Lease refusals are counted, never failed: a
// follower that refuses after losing its grantor is behaving exactly
// as specified.
func (ri *readIssuer) onReply(env amcast.Envelope) {
	if ri == nil || env.Kind != amcast.KindReply {
		return
	}
	ri.prefix.Observe(env)
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
// multicast as soon as the previous one completed at every destination.
// Duplicate replies (fault injection) are folded by the pending set.
type loopClient struct {
	s     *sim.Simulator
	net   *sim.Network
	route func(m amcast.Message) []amcast.NodeID
	rec   *trace.Recorder
	res   *ScheduleResult
	id    amcast.NodeID
	msgs  []amcast.Message
	next  int
	cur   map[amcast.GroupID]bool
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
	c.cur = make(map[amcast.GroupID]bool, len(m.Dst))
	for _, g := range m.Dst {
		c.cur[g] = true
	}
	c.rec.OnMulticast(m)
	c.res.Multicasts++
	c.tracer.Begin(m.ID)
	for _, to := range c.route(m) {
		c.net.Send(c.id, to, amcast.Envelope{Kind: amcast.KindRequest, From: c.id, Msg: m})
	}
}

// HandleEnvelope implements sim.Handler: collect replies, issue the next
// multicast once the current one completed everywhere. Every reply also
// feeds the fast-read issuer (stale and duplicate replies included —
// they still witness a delivered prefix).
func (c *loopClient) HandleEnvelope(env amcast.Envelope) {
	c.reads.onReply(env)
	if env.Kind != amcast.KindReply || c.cur == nil || !c.cur[env.From.Group()] {
		return
	}
	// Stale replies for earlier messages cannot reach here: cur only
	// tracks the in-flight message, and ids are per-client unique.
	if env.Msg.ID != c.msgs[c.next-1].ID {
		return
	}
	delete(c.cur, env.From.Group())
	if len(c.cur) == 0 {
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
		if d.Instrument != nil {
			return nil, nil, fmt.Errorf("chaos: Options.Durable does not compose with Instrument deployments (observers would bind to pre-crash engines)")
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
		fid := amcast.ClientNode(opt.Clients)
		allGroups := amcast.NormalizeDst(append([]amcast.GroupID(nil), d.Groups...))
		if opt.ClosedLoop {
			n := opt.Messages
			if n < 4 {
				n = 4
			}
			msgs := make([]amcast.Message, n)
			for i := range msgs {
				msgs[i] = amcast.Message{
					ID:     amcast.NewMsgID(opt.Clients, uint64(i+1)),
					Sender: fid,
					Dst:    allGroups,
					Flags:  amcast.FlagFlush,
				}
			}
			lc := &loopClient{
				s: s, net: net, route: d.Route, rec: rec, res: res,
				id: fid, msgs: msgs, think: opt.FlushEvery,
			}
			net.Register(fid, lc)
			s.ScheduleAt(opt.FlushEvery, lc.issue)
		} else {
			net.Register(fid, sim.HandlerFunc(func(env amcast.Envelope) {}))
			seq := uint64(0)
			for at := opt.FlushEvery; at <= opt.InjectWindow; at += opt.FlushEvery {
				seq++
				m := amcast.Message{
					ID:     amcast.NewMsgID(opt.Clients, seq),
					Sender: fid,
					Dst:    allGroups,
					Flags:  amcast.FlagFlush,
				}
				rec.OnMulticast(m)
				res.Multicasts++
				at := at
				s.ScheduleAt(at, func() {
					for _, to := range d.Route(m) {
						net.Send(fid, to, amcast.Envelope{Kind: amcast.KindRequest, From: fid, Msg: m})
					}
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
		cid := amcast.ClientNode(c)
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
			msgs[i] = amcast.Message{
				ID:      amcast.NewMsgID(c, uint64(i+1)),
				Sender:  cid,
				Dst:     dst,
				Payload: payload,
			}
		}
		if opt.ClosedLoop {
			lc := &loopClient{
				s: s, net: net, route: d.Route, rec: rec, res: res,
				id: cid, msgs: msgs, think: opt.ThinkTime,
				reads:  newReadIssuer(instr, opt, s, seed, c, res, fail),
				tracer: tracer,
			}
			net.Register(cid, lc)
			start := sim.Time(rng.Int63n(int64(opt.InjectWindow)/8 + 1))
			s.ScheduleAt(start, lc.issue)
			continue
		}
		ri := newReadIssuer(instr, opt, s, seed, c, res, fail)
		// Open-loop completion tracking for the tracer: a sampled
		// multicast finishes when every destination has replied
		// (duplicate replies fold into the set).
		pending := make(map[amcast.MsgID]map[amcast.GroupID]bool)
		net.Register(cid, sim.HandlerFunc(func(env amcast.Envelope) {
			ri.onReply(env)
			if env.Kind != amcast.KindReply {
				return
			}
			if want, ok := pending[env.Msg.ID]; ok {
				delete(want, env.From.Group())
				if len(want) == 0 {
					delete(pending, env.Msg.ID)
					tracer.Finish(env.Msg.ID)
				}
			}
		}))
		for i := range msgs {
			m := msgs[i]
			rec.OnMulticast(m)
			res.Multicasts++
			at := sim.Time(rng.Int63n(int64(opt.InjectWindow)))
			s.ScheduleAt(at, func() {
				if tracer.Sampled(m.ID) {
					want := make(map[amcast.GroupID]bool, len(m.Dst))
					for _, g := range m.Dst {
						want[g] = true
					}
					pending[m.ID] = want
					tracer.Begin(m.ID)
				}
				for _, to := range d.Route(m) {
					net.Send(cid, to, amcast.Envelope{Kind: amcast.KindRequest, From: cid, Msg: m})
				}
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
