package prototest

import (
	"math/rand"
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/simhost"
	"flexcast/internal/trace"
)

// chunkedRun is the chunked source: every group is a stepped node with
// a seeded MaxBatch, so its chunks are the ones production forms from
// the same queue (take's selection included), and the run seed picks
// which in-flight envelope moves into its queue and which node steps.
func chunkedRun(t *testing.T, cfg RandomConfig, runSeed int64) *world {
	t.Helper()
	rng := rand.New(rand.NewSource(runSeed))
	w := newWorld(t, cfg.Groups, cfg.Factory, simhost.Config{
		MaxBatch: func(amcast.GroupID) int { return 1 + rng.Intn(8) }, // drawn once per group, in order
		Manual:   true,
	})

	// Inject the workload: every multicast enters its route node's queue
	// up front; interleaving comes from the seeded link scheduling below.
	mcRNG := rand.New(rand.NewSource(cfg.Seed))
	for c := 0; c < cfg.Clients; c++ {
		cid := amcast.ClientNode(c)
		for i := 0; i < cfg.Messages; i++ {
			m := cfg.message(c, i, mcRNG)
			w.Rec.OnMulticast(m)
			for _, to := range cfg.Route(m) {
				w.request(cid, to, amcast.Envelope{Kind: amcast.KindRequest, From: cid, Msg: m})
			}
		}
	}

	// Drive to quiescence: repeatedly either move one in-flight envelope
	// into its destination's queue, or step a node with a queue — both
	// picked by the run seed, so chunk boundaries land everywhere across
	// protocol phases.
	for {
		busy := w.Links.Busy()
		var queued []amcast.GroupID
		for _, g := range cfg.Groups {
			if w.QueueLen(g) > 0 {
				queued = append(queued, g)
			}
		}
		if len(busy) == 0 && len(queued) == 0 {
			break
		}
		// Prefer moving traffic (70%) so queues build real backlogs;
		// otherwise step a random node with a queue.
		if len(busy) > 0 && (len(queued) == 0 || rng.Intn(10) < 7) {
			l := busy[rng.Intn(len(busy))]
			w.Move(l)
			// Step at a seeded random queue length so a hot node still
			// drains, sometimes below its MaxBatch, sometimes past it.
			if g := l.To.Group(); w.QueueLen(g) >= 1+rng.Intn(16) {
				w.Step(g)
			}
			continue
		}
		w.Step(queued[rng.Intn(len(queued))])
	}
	if cfg.OnEngines != nil {
		cfg.OnEngines(w.Engines)
	}
	return w
}

// RunChunked executes one seeded chunked run (seeded MaxBatch per node,
// random link interleavings, every group stepped by the node runtime)
// and returns the recorded trace. Store-backed tests combine it with
// RandomConfig.OnEngines to compare state digests against a
// per-envelope execution of the same workload.
func RunChunked(t *testing.T, cfg RandomConfig, runSeed int64) *trace.Recorder {
	t.Helper()
	return chunkedRun(t, cfg, runSeed).Rec
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
		w := chunkedRun(t, cfg, runSeed)
		rec := w.Rec
		if err := rec.CheckAll(minimality); err != nil {
			t.Fatalf("chunked run (seed %d/%d) violates spec: %v", cfg.Seed, runSeed, err)
		}
		if rec.Deliveries() == 0 {
			t.Fatalf("chunked run (seed %d/%d) delivered nothing", cfg.Seed, runSeed)
		}
		if rec2 := chunkedRun(t, cfg, runSeed).Rec; !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("chunked run (seed %d/%d) is not deterministic", cfg.Seed, runSeed)
		}
		backlogged += w.Backlogged
	}
	if backlogged == 0 {
		t.Fatalf("chunked runs (seed %d) never stepped a node from a backlog: the priority drain went unchecked", cfg.Seed)
	}
}
