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
	"flexcast/internal/codec"
	"flexcast/internal/metrics"
	"flexcast/internal/sim"
	"flexcast/internal/stats"
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

	// Completed counts a timed run's (Options.Duration) client
	// multicasts issued inside its trimmed window and completed, and
	// WindowSecs is the window's length. PerDest[k] holds the latencies
	// (µs) of the (k+1)-th destination's reply to the window's
	// multi-group multicasts — the paper's "k-th destination".
	Completed  int
	WindowSecs float64
	PerDest    [3]stats.Recorder
	// Traffic counts what each group received and delivered over the
	// whole schedule.
	Traffic map[amcast.GroupID]metrics.NodeCounters
	// FinalHistoryLen is each FlexCast group's live history size at the
	// end of the schedule: what flush garbage collection left.
	FinalHistoryLen map[amcast.GroupID]int
	// Trace is the recorded schedule the checks ran on (nil from
	// Measure).
	Trace *trace.Recorder
}

// Throughput returns a timed run's completions per second of its
// window.
func (r *ScheduleResult) Throughput() float64 {
	if r.WindowSecs == 0 {
		return 0
	}
	return float64(r.Completed) / r.WindowSecs
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
	// repro holds the flexbench flags that shaped the schedules, so a
	// printed reproduce command replays exactly the failing one.
	repro string
}

// reproFlags spells, as flexbench flags, every option a flexbench
// exploration can set that shapes a schedule.
func reproFlags(d Deployment, opt Options) string {
	flags := ""
	if opt.BugFlipEvery > 0 {
		flags += fmt.Sprintf(" -chaos-bug %d", opt.BugFlipEvery)
	}
	if opt.ClosedLoop {
		flags += " -closed-loop"
	}
	flags += fmt.Sprintf(" -messages %d", opt.Messages)
	if d.execute {
		flags += " -execute"
	}
	if opt.Locality > 0 {
		flags += " -profile wan"
	}
	if opt.Durable {
		flags += " -durable"
	}
	return flags
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
		fmt.Fprintf(w, "    reproduce: flexbench -protocol %s -repro-seed %d%s\n", r.Deployment, v.Seed, r.repro)
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
	rep := &Report{Deployment: d.Name, Schedules: opt.Schedules, minimality: d.Minimality, repro: reproFlags(d, opt)}
	for i := 0; i < opt.Schedules; i++ {
		res, tracer, err := runSchedule(d, opt, ScheduleSeed(opt.Seed, i), true)
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

// RunSchedule runs one seeded schedule: build a fresh deployment on the
// simulator, inject the seed's faults and workload, run to quiescence,
// and check every safety property. A timed schedule (Options.Duration)
// runs to Duration, then stops its clients and drains. The returned
// error is reserved for deployment problems; invariant violations land
// in ScheduleResult.Err.
func RunSchedule(d Deployment, opt Options, seed int64) (*ScheduleResult, error) {
	res, _, err := runSchedule(d, opt, seed, true)
	return res, err
}

// Measure runs one seeded schedule as RunSchedule does, but records no
// trace and so checks no trace property: a long timed run holds little
// more than its latencies. A timed schedule ends at Duration, in flight.
func Measure(d Deployment, opt Options, seed int64) (*ScheduleResult, error) {
	res, _, err := runSchedule(d, opt, seed, false)
	return res, err
}

// run is one schedule in progress.
type run struct {
	d      Deployment
	opt    Options
	seed   int64
	rng    *rand.Rand
	s      *sim.Simulator
	net    *sim.Network
	rec    *trace.Recorder // nil when the schedule is not checked
	res    *ScheduleResult
	tracer *telemetry.Tracer
	nodes  map[amcast.GroupID]*node
	loops  []*loopClient
	// lo and hi bound a timed run's measurement window: the run minus
	// its first and last tenth (the paper's warm-up and cool-down).
	lo, hi sim.Time
}

func (r *run) fail(err error) {
	if r.res.Err == nil {
		r.res.Err = err
	}
}

// onSend is the network's send hook: it counts what a group receives
// and records the transmission for the minimality audit.
func (r *run) onSend(from, to amcast.NodeID, env amcast.Envelope) {
	if n := r.nodes[to.Group()]; n != nil && !to.IsClient() {
		n.traffic.OnReceive(env)
	}
	if r.rec != nil {
		r.rec.OnSend(from, to, env)
	}
}

func (r *run) onDeliver(d amcast.Delivery) error {
	r.res.Deliveries++
	r.tracer.Stamp(d.Msg.ID, telemetry.StageDeliver)
	if r.rec == nil {
		return nil
	}
	return r.rec.OnDeliver(d)
}

func (r *run) multicast(m amcast.Message) {
	r.res.Multicasts++
	if r.rec != nil {
		r.rec.OnMulticast(m)
	}
}

// procCost is the serial processing-cost model of Options.ProcCostBase
// and ProcCostPerKB; clients are infinitely fast.
func (r *run) procCost(n amcast.NodeID, env amcast.Envelope) sim.Time {
	if n.IsClient() {
		return 0
	}
	return r.opt.ProcCostBase + sim.Time(r.opt.ProcCostPerKB*float64(codec.Size(env))/1024)
}

// complete accounts one completed call of a timed run: counted when a
// client issued it inside the window, its reply latencies recorded when
// it was multi-group.
func (r *run) complete(call *client.Call[openCall]) {
	c := &call.Data
	if r.opt.Duration == 0 || call.Msg.Flags&amcast.FlagFlush != 0 || c.issued < r.lo || c.issued > r.hi {
		return
	}
	r.res.Completed++
	if !call.Msg.IsGlobal() {
		return
	}
	for k := 0; k < c.replies; k++ {
		r.res.PerDest[k].Add(float64(c.at[k] - c.issued))
	}
}

// readIssuer issues seeded fast-path transactions through the
// deployment's FastRead instrumentation — each read at its client's own
// session barrier (the call table's observed prefix: reply sequence
// numbers plus piggybacked watermarks), so read-your-writes is exercised
// under the full fault model, across whichever replica the
// instrumentation routes the read to.
type readIssuer struct {
	r      *run
	rng    *rand.Rand
	read   func(rng *rand.Rand, g amcast.GroupID, barrier uint64, now sim.Time) (bool, error)
	prefix amcast.PrefixTracker // the client's calls.Prefix
}

// newReadIssuer returns nil when the deployment has no fast-read hook
// or reads are disabled.
func (r *run) newReadIssuer(instr *Instrumentation, client int, prefix amcast.PrefixTracker) *readIssuer {
	if instr == nil || instr.FastRead == nil || r.opt.FastReadProb <= 0 {
		return nil
	}
	return &readIssuer{
		r:      r,
		rng:    rand.New(rand.NewSource(ScheduleSeed(r.seed, 5000+client))),
		read:   instr.FastRead,
		prefix: prefix,
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
	if ri.rng.Float64() >= ri.r.opt.FastReadProb {
		return
	}
	g := env.From.Group()
	ri.r.res.FastReads++
	served, err := ri.read(ri.rng, g, ri.prefix.Prefix(g), ri.r.s.Now())
	if err != nil {
		ri.r.fail(fmt.Errorf("fast read at group %d: %w", g, err))
		return
	}
	if !served {
		ri.r.res.LeaseRefusals++
	}
}

// openCall is a client's record of one open call: when it was issued and
// when its first destinations replied.
type openCall struct {
	issued  sim.Time
	replies int
	at      [3]sim.Time
}

// loopClient is one closed-loop workload source — the simulator's only
// one: it issues its next multicast the moment the previous one
// completed at every destination (the call table folds the duplicate
// and stale replies faults inject), or a think time later.
type loopClient struct {
	r      *run
	calls  *client.Calls[openCall]
	next   func(seq uint64) (amcast.Message, bool) // false: budget spent
	issued uint64
	think  sim.Time
	stop   bool
	reads  *readIssuer
	// tracer stamps sampled multicasts (nil on the flush client, whose
	// GC multicasts are not client requests).
	tracer *telemetry.Tracer
}

// loop registers a closed-loop client on the network.
func (r *run) loop(calls *client.Calls[openCall], next func(seq uint64) (amcast.Message, bool), think sim.Time, reads *readIssuer, tracer *telemetry.Tracer) *loopClient {
	c := &loopClient{r: r, calls: calls, next: next, think: think, reads: reads, tracer: tracer}
	r.net.Register(calls.ID(), c)
	r.loops = append(r.loops, c)
	return c
}

func (c *loopClient) issue() {
	if c.stop {
		return
	}
	m, ok := c.next(c.issued + 1)
	if !ok {
		return
	}
	c.issued++
	c.calls.Issue(m, openCall{issued: c.r.s.Now()})
	c.r.multicast(m)
	c.tracer.Begin(m.ID)
	c.calls.Requests(m, func(to amcast.NodeID, env amcast.Envelope) { c.r.net.Send(c.calls.ID(), to, env) })
}

// HandleEnvelope implements sim.Handler: collect replies, issue the next
// multicast once the current one completed everywhere.
func (c *loopClient) HandleEnvelope(env amcast.Envelope) {
	call, progress := c.calls.Reply(env)
	c.reads.onReply(env, progress)
	if call == nil {
		return
	}
	if d := &call.Data; d.replies < len(d.at) {
		d.at[d.replies] = c.r.s.Now()
		d.replies++
	}
	if progress != client.Completed {
		return
	}
	c.tracer.Finish(env.Msg.ID)
	c.r.complete(call)
	switch {
	case c.stop:
	case c.think > 0:
		c.r.s.Schedule(c.think, c.issue)
	default:
		c.issue()
	}
}

// runSchedule is RunSchedule (check) or Measure, plus the schedule's
// live tracer, so Explore can merge histograms across schedules. The
// tracer stays off ScheduleResult because it holds a clock closure,
// which would poison reflect.DeepEqual-based determinism comparisons.
func runSchedule(d Deployment, opt Options, seed int64, check bool) (*ScheduleResult, *telemetry.Tracer, error) {
	if err := d.validate(); err != nil {
		return nil, nil, err
	}
	opt.fill()
	s := sim.New()
	r := &run{d: d, opt: opt, seed: seed, rng: rand.New(rand.NewSource(seed)), s: s,
		res: &ScheduleResult{Seed: seed}, nodes: make(map[amcast.GroupID]*node, len(d.Groups))}
	if check {
		r.rec = trace.NewRecorder()
		r.res.Trace = r.rec
	}
	r.lo = sim.Time(float64(opt.Duration) * 0.1)
	r.hi = opt.Duration - r.lo
	r.res.WindowSecs = float64(r.hi-r.lo) / 1e6
	// The lifecycle tracer runs on the simulator clock, scaled to the
	// tracer's nanosecond unit (sim.Time is virtual microseconds).
	r.tracer = telemetry.NewTracer(max(opt.TraceSample, 0), func() uint64 { return uint64(s.Now()) * 1000 })

	// Random but fixed per-link latencies in [100µs, 20ms): chaos
	// explores latency topologies beyond the WAN matrix — unless the
	// paper's environment is on.
	latency := wanLatency
	if opt.Locality <= 0 {
		lat := make(map[[2]amcast.NodeID]sim.Time)
		latency = func(from, to amcast.NodeID) sim.Time {
			key := [2]amcast.NodeID{from, to}
			l, ok := lat[key]
			if !ok {
				l = sim.Time(100 + r.rng.Int63n(19_900))
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

	inj := newInjector(opt, d.Groups, r.rng, s)
	netOpts := []sim.NetworkOption{sim.WithSendHook(r.onSend)}
	if inj.perEnvelope() {
		netOpts = append(netOpts, sim.WithFaults(inj.Fault))
	}
	if opt.ProcCostBase > 0 || opt.ProcCostPerKB > 0 {
		netOpts = append(netOpts, sim.WithProcCost(r.procCost))
	}
	r.net = sim.NewNetwork(s, latency, netOpts...)

	engines := make(map[amcast.GroupID]amcast.SnapshotEngine, len(d.Groups))
	for _, g := range d.Groups {
		eng, err := d.Factory(g)
		if err != nil {
			return nil, nil, fmt.Errorf("chaos: build engine for group %d: %w", g, err)
		}
		n := newNode(amcast.GroupNode(g), eng, r.net, opt.SnapshotEvery, len(inj.crashes) > 0)
		n.onDeliver = r.onDeliver
		n.fail = r.fail
		n.bugEvery = opt.BugFlipEvery
		if opt.Durable {
			g := g
			err := n.enableDurable(filepath.Join(durDir, fmt.Sprintf("group-%d", g)),
				func() (amcast.SnapshotEngine, error) { return d.Factory(g) }, d.Decode)
			if err != nil {
				return nil, nil, fmt.Errorf("chaos: durable backend for group %d: %w", g, err)
			}
		}
		r.nodes[g] = n
		engines[g] = eng
		r.net.Register(amcast.GroupNode(g), n)
	}
	var instr *Instrumentation
	if d.Instrument != nil {
		instr = d.Instrument(engines, s.Now)
		if opt.Durable {
			if instr.Rebind == nil {
				return nil, nil, fmt.Errorf("chaos: Options.Durable needs Instrumentation.Rebind (observers would stay bound to pre-crash engines)")
			}
			for g, n := range r.nodes {
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
			n := r.nodes[w.group]
			n.Crash()
			if w.torn {
				if err := n.TearTail(); err != nil {
					r.fail(err)
				} else {
					inj.stats.TornTails++
				}
			}
			r.net.CrashNode(gnode)
			inj.stats.Crashes++
		})
		s.ScheduleAt(w.end, func() {
			inj.stats.Parked += r.net.Parked(gnode)
			if err := r.nodes[w.group].Recover(); err != nil {
				r.fail(err)
			}
			r.net.RestartNode(gnode)
		})
	}

	r.flushClient()
	r.clients(instr)

	if opt.Duration > 0 {
		s.RunUntil(opt.Duration)
		for _, c := range r.loops {
			c.stop = true
		}
	}
	if check || opt.Duration == 0 {
		s.Run()
	}
	r.res.Events = s.Steps()
	r.res.Faults = inj.stats
	r.res.FaultTrace = inj.FaultTrace()
	r.res.Traffic = make(map[amcast.GroupID]metrics.NodeCounters, len(d.Groups))
	r.res.FinalHistoryLen = make(map[amcast.GroupID]int, len(d.Groups))
	for g, n := range r.nodes {
		r.res.Traffic[g] = n.traffic
		if h, ok := n.eng.(interface{ HistoryLen() int }); ok {
			r.res.FinalHistoryLen[g] = h.HistoryLen()
		}
	}

	// Durable teardown: surface any latched backend I/O error, then
	// release the file descriptors before the directory is removed.
	for _, g := range d.Groups {
		if err := r.nodes[g].closeDurable(); err != nil {
			r.fail(fmt.Errorf("group %d durable backend: %w", g, err))
		}
	}

	if check {
		r.check(instr)
	}
	r.res.Stages = r.tracer.Report()
	return r.res, r.tracer, nil
}

// check runs the safety checks. res.Err may already hold an at-most-once
// violation or a recovery divergence; the trace checkers add the global
// properties, and engines exposing an internal acyclicity check (the
// FlexCast history DAG) are audited too — each node's current engine,
// since durable recovery replaces engines. Execute-mode deployments add
// the execution-level audits (store serializability including fast
// reads, cross-shard invariants, replica digests).
func (r *run) check(instr *Instrumentation) {
	if r.res.Err == nil {
		r.res.Err = r.rec.CheckAll(r.d.Minimality)
	}
	for _, g := range r.d.Groups {
		if c, ok := r.nodes[g].eng.(interface{ CheckHistoryAcyclic() error }); ok && r.res.Err == nil {
			if err := c.CheckHistoryAcyclic(); err != nil {
				r.res.Err = fmt.Errorf("group %d: %w", g, err)
			}
		}
	}
	if r.res.Err == nil && instr != nil && instr.PostCheck != nil {
		r.res.Err = instr.PostCheck()
	}
}

// flushClient adds the flush/garbage-collection client (paper §4.3):
// flush multicasts to every group on a fixed period, so schedules
// exercise history pruning concurrently with faults. Closed-loop and
// timed schedules run as long as their clients keep completing, so the
// flush client then chains closed-loop too (one flush per completed
// flush plus the period), keeping GC active across the whole run.
func (r *run) flushClient() {
	opt := r.opt
	if opt.FlushEvery <= 0 {
		return
	}
	calls := client.NewCalls[openCall](opt.Clients, r.d.Route)
	all := append([]amcast.GroupID(nil), r.d.Groups...)
	if opt.ClosedLoop || opt.Duration > 0 {
		budget := uint64(max(opt.Messages, 4))
		lc := r.loop(calls, func(seq uint64) (amcast.Message, bool) {
			return calls.Message(seq, all, amcast.FlagFlush, nil), opt.Duration > 0 || seq <= budget
		}, opt.FlushEvery, nil, nil)
		r.s.ScheduleAt(opt.FlushEvery, lc.issue)
		return
	}
	r.net.Register(calls.ID(), sim.HandlerFunc(func(env amcast.Envelope) {}))
	seq := uint64(0)
	for at := opt.FlushEvery; at <= opt.InjectWindow; at += opt.FlushEvery {
		seq++
		m := calls.Message(seq, all, amcast.FlagFlush, nil)
		r.multicast(m)
		r.s.ScheduleAt(at, func() {
			// Fire and forget: nothing waits on an open-loop flush.
			calls.Requests(m, func(to amcast.NodeID, env amcast.Envelope) { r.net.Send(calls.ID(), to, env) })
		})
	}
}

// clients builds the workload. A timed run's clients generate their
// multicasts as they go and start 137 µs apart per region. Otherwise
// every client's multicast sequence is drawn up front from the schedule
// seed (so open- and closed-loop runs with the same seed share the
// workload); open loop schedules them at random times, closed loop
// chains each issue to the previous completion.
func (r *run) clients(instr *Instrumentation) {
	opt := r.opt
	maxDst := opt.MaxDst
	if maxDst == 0 || maxDst > len(r.d.Groups) {
		maxDst = len(r.d.Groups)
	}
	for c := 0; c < opt.Clients; c++ {
		calls := client.NewCalls[openCall](c, r.d.Route)
		gen := r.workload(c, maxDst)
		if opt.Duration > 0 {
			lc := r.loop(calls, func(seq uint64) (amcast.Message, bool) {
				dst, payload := gen(int(seq - 1))
				return calls.Message(seq, dst, 0, payload), true
			}, 0, r.newReadIssuer(instr, c, calls.Prefix), r.tracer)
			r.s.ScheduleAt(sim.Time(c%len(r.d.Groups))*137, lc.issue)
			continue
		}
		msgs := make([]amcast.Message, opt.Messages)
		for i := range msgs {
			dst, payload := gen(i)
			msgs[i] = calls.Message(uint64(i+1), dst, 0, payload)
		}
		reads := r.newReadIssuer(instr, c, calls.Prefix)
		if opt.ClosedLoop {
			lc := r.loop(calls, func(seq uint64) (amcast.Message, bool) {
				if seq > uint64(len(msgs)) {
					return amcast.Message{}, false
				}
				return msgs[seq-1], true
			}, 0, reads, r.tracer)
			r.s.ScheduleAt(sim.Time(r.rng.Int63n(int64(opt.InjectWindow)/8+1)), lc.issue)
			continue
		}
		// Open loop: completions only matter to the tracer (a sampled
		// multicast finishes when every destination has replied).
		r.net.Register(calls.ID(), sim.HandlerFunc(func(env amcast.Envelope) {
			_, progress := calls.Reply(env)
			reads.onReply(env, progress)
			if progress == client.Completed {
				r.tracer.Finish(env.Msg.ID)
			}
		}))
		for i := range msgs {
			m := msgs[i]
			r.multicast(m)
			s := r.s
			s.ScheduleAt(sim.Time(r.rng.Int63n(int64(opt.InjectWindow))), func() {
				calls.Issue(m, openCall{issued: s.Now()})
				r.tracer.Begin(m.ID)
				calls.Requests(m, func(to amcast.NodeID, env amcast.Envelope) { r.net.Send(calls.ID(), to, env) })
			})
		}
	}
}
