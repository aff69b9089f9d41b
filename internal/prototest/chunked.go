package prototest

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/runtime"
	"flexcast/internal/trace"
)

// chunkedRun is one deterministic chunked execution: every group is a
// stepped runtime.Node with a seeded MaxBatch, so its chunks are the
// ones production forms from the same queue (take's selection
// included), and a router moves in-flight envelopes into the queues and
// steps the nodes in seeded random order. It returns the recorded trace,
// per group the delivery sequence, and how many steps popped a backlog
// (a queue longer than a MaxBatch above 1).
func chunkedRun(t *testing.T, cfg RandomConfig, runSeed int64) (*trace.Recorder, map[amcast.GroupID][]amcast.MsgID, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(runSeed))
	rec := trace.NewRecorder()
	engines := make(map[amcast.GroupID]amcast.Engine, len(cfg.Groups))
	nodes := make(map[amcast.GroupID]*runtime.Node, len(cfg.Groups))
	maxBatch := make(map[amcast.GroupID]int, len(cfg.Groups))
	seqs := make(map[amcast.GroupID][]amcast.MsgID, len(cfg.Groups))
	flight := make(map[link][]amcast.Envelope)
	var checkErr error
	for _, g := range cfg.Groups {
		from := amcast.GroupNode(g)
		engines[g] = cfg.Factory(g)
		maxBatch[g] = 1 + rng.Intn(8)
		nodes[g] = runtime.NewStepped(engines[g], func(to amcast.NodeID, envs []amcast.Envelope) {
			for _, env := range envs {
				rec.OnSend(from, to, env)
			}
			if !to.IsClient() {
				flight[link{from, to}] = append(flight[link{from, to}], envs...)
			}
		}, runtime.Config{
			MaxBatch: maxBatch[g],
			// One goroutine steps every node: Submit must never wait.
			QueueDepth: math.MaxInt,
			OnDeliver: func(d amcast.Delivery) {
				if err := rec.OnDeliver(d); err != nil && checkErr == nil {
					checkErr = err
				}
				seqs[d.Group] = append(seqs[d.Group], d.Msg.ID)
			},
		})
	}

	var buf []amcast.Envelope
	backlogged := 0
	step := func(g amcast.GroupID) {
		if mb := maxBatch[g]; mb > 1 && nodes[g].QueueLen() > mb {
			backlogged++
		}
		buf = nodes[g].Step(buf)
		Poison(buf) // the chunk was only lent to the engine
	}

	// Inject the workload: every multicast enters its route node's queue
	// up front; interleaving comes from the seeded link scheduling below.
	mcRNG := rand.New(rand.NewSource(cfg.Seed))
	for c := 0; c < cfg.Clients; c++ {
		cid := amcast.ClientNode(c)
		for i := 0; i < cfg.Messages; i++ {
			m := cfg.message(c, i, mcRNG)
			rec.OnMulticast(m)
			env := amcast.Envelope{Kind: amcast.KindRequest, From: cid, Msg: m}
			for _, to := range cfg.Route(m) {
				rec.OnSend(cid, to, env)
				nodes[to.Group()].Submit([]amcast.Envelope{env})
			}
		}
	}

	// Drive to quiescence: repeatedly either move one in-flight envelope
	// into its destination's queue, or step a node with a queue — both
	// picked by the run seed, so chunk boundaries land everywhere across
	// protocol phases.
	for {
		var links []link
		for l, q := range flight {
			if len(q) > 0 {
				links = append(links, l)
			}
		}
		var queued []amcast.GroupID
		for _, g := range cfg.Groups {
			if nodes[g].QueueLen() > 0 {
				queued = append(queued, g)
			}
		}
		if len(links) == 0 && len(queued) == 0 {
			break
		}
		slices.SortFunc(links, func(a, b link) int { return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to)) })

		// Prefer moving traffic (70%) so queues build real backlogs;
		// otherwise step a random node with a queue.
		if len(links) > 0 && (len(queued) == 0 || rng.Intn(10) < 7) {
			l := links[rng.Intn(len(links))]
			q := flight[l]
			flight[l] = q[1:]
			g := l.to.Group()
			nodes[g].Submit(q[:1])
			// Step at a seeded random queue length so a hot node still
			// drains, sometimes below its MaxBatch, sometimes past it.
			if nodes[g].QueueLen() >= 1+rng.Intn(16) {
				step(g)
			}
			continue
		}
		step(queued[rng.Intn(len(queued))])
	}
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	if cfg.OnEngines != nil {
		cfg.OnEngines(engines)
	}
	return rec, seqs, backlogged
}

// RunChunked executes one seeded chunked run (seeded MaxBatch per node,
// random link interleavings, every group stepped by the node runtime)
// and returns the recorded trace. Store-backed tests combine it with
// RandomConfig.OnEngines to compare state digests against a
// per-envelope execution of the same workload.
func RunChunked(t *testing.T, cfg RandomConfig, runSeed int64) *trace.Recorder {
	t.Helper()
	rec, _, _ := chunkedRun(t, cfg, runSeed)
	return rec
}

// RunChunkedSafety exercises the weak (protocol-equivalence) form of the
// amcast.BatchStepper contract: a random workload is driven through the
// engines entirely by node runtime steps with seeded batch sizes and
// link interleavings, and the recorded run must satisfy the full atomic
// multicast specification. The same seeds must also reproduce the exact
// run (determinism over batch sequences — what replicated groups need),
// and chunk boundaries must not lose deliveries (agreement implies every
// multicast lands everywhere). The runs must include steps from a
// backlog, or take's control-priority drain went unchecked.
func RunChunkedSafety(t *testing.T, cfg RandomConfig, minimality bool) {
	t.Helper()
	backlogged := 0
	for runSeed := int64(1); runSeed <= 3; runSeed++ {
		rec, seqs, b := chunkedRun(t, cfg, runSeed)
		if err := rec.CheckAll(minimality); err != nil {
			t.Fatalf("chunked run (seed %d/%d) violates spec: %v", cfg.Seed, runSeed, err)
		}
		if rec.Deliveries() == 0 {
			t.Fatalf("chunked run (seed %d/%d) delivered nothing", cfg.Seed, runSeed)
		}
		rec2, seqs2, _ := chunkedRun(t, cfg, runSeed)
		if rec.Deliveries() != rec2.Deliveries() || !reflect.DeepEqual(seqs, seqs2) {
			t.Fatalf("chunked run (seed %d/%d) is not deterministic", cfg.Seed, runSeed)
		}
		backlogged += b
	}
	if backlogged == 0 {
		t.Fatalf("chunked runs (seed %d) never stepped a node from a backlog: the priority drain went unchecked", cfg.Seed)
	}
}
