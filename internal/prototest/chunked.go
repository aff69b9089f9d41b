package prototest

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/trace"
)

// chunkedRun is one deterministic chunked execution: a router where
// every node buffers inbound envelopes and drains them through
// amcast.BatchStep in seeded random chunk sizes, interleaving links in
// seeded random order. It returns the recorded trace and, per group, the
// delivery sequence (for determinism comparison).
func chunkedRun(t *testing.T, cfg RandomConfig, runSeed int64) (*trace.Recorder, map[amcast.GroupID][]amcast.MsgID) {
	t.Helper()
	rng := rand.New(rand.NewSource(runSeed))
	rec := trace.NewRecorder()
	engines := make(map[amcast.GroupID]amcast.Engine, len(cfg.Groups))
	buffers := make(map[amcast.GroupID][]amcast.Envelope, len(cfg.Groups))
	seqs := make(map[amcast.GroupID][]amcast.MsgID, len(cfg.Groups))
	for _, g := range cfg.Groups {
		engines[g] = cfg.Factory(g)
	}

	type link struct{ from, to amcast.NodeID }
	flight := make(map[link][]amcast.Envelope)
	var checkErr error

	flush := func(g amcast.GroupID) {
		envs := buffers[g]
		if len(envs) == 0 {
			return
		}
		buffers[g] = nil
		if cfg.PriorityDrain {
			envs = priorityReorder(envs)
		}
		eng := engines[g]
		for _, out := range amcast.BatchStep(eng, envs) {
			l := link{from: amcast.GroupNode(g), to: out.To}
			rec.OnSend(l.from, l.to, out.Env)
			flight[l] = append(flight[l], out.Env)
		}
		for _, d := range eng.TakeDeliveries() {
			if err := rec.OnDeliver(d); err != nil && checkErr == nil {
				checkErr = err
			}
			seqs[d.Group] = append(seqs[d.Group], d.Msg.ID)
		}
		// A chunk is only lent to BatchStep (the node runtime refills its
		// chunk buffer): an engine that kept the slice now holds garbage.
		Poison(envs)
	}

	// Inject the workload: every multicast enters its route node's buffer
	// up front; interleaving comes from the seeded link scheduling below.
	mcRNG := rand.New(rand.NewSource(cfg.Seed))
	maxDst := cfg.MaxDst
	if maxDst == 0 || maxDst > len(cfg.Groups) {
		maxDst = len(cfg.Groups)
	}
	for c := 0; c < cfg.Clients; c++ {
		cid := amcast.ClientNode(c)
		for i := 0; i < cfg.Messages; i++ {
			m := cfg.message(c, i, maxDst, mcRNG)
			rec.OnMulticast(m)
			env := amcast.Envelope{Kind: amcast.KindRequest, From: cid, Msg: m}
			for _, to := range cfg.Route(m) {
				rec.OnSend(cid, to, env)
				buffers[to.Group()] = append(buffers[to.Group()], env)
			}
		}
	}

	// Drive to quiescence: repeatedly either move one in-flight envelope
	// into its destination's buffer, or flush a buffered node through
	// BatchStep — both picked by the run seed, so chunk boundaries land
	// everywhere across protocol phases.
	for {
		var links []link
		for l, q := range flight {
			if len(q) > 0 && !l.to.IsClient() {
				links = append(links, l)
			}
		}
		var buffered []amcast.GroupID
		for g, b := range buffers {
			if len(b) > 0 {
				buffered = append(buffered, g)
			}
		}
		if len(links) == 0 && len(buffered) == 0 {
			break
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i].from != links[j].from {
				return links[i].from < links[j].from
			}
			return links[i].to < links[j].to
		})
		sort.Slice(buffered, func(i, j int) bool { return buffered[i] < buffered[j] })

		// Prefer moving traffic (70%) so buffers accumulate real chunks;
		// otherwise flush a random buffered node.
		if len(links) > 0 && (len(buffered) == 0 || rng.Intn(10) < 7) {
			l := links[rng.Intn(len(links))]
			q := flight[l]
			flight[l] = q[1:]
			buffers[l.to.Group()] = append(buffers[l.to.Group()], q[0])
			// Cap buffers at a seeded random chunk size so a hot node
			// still flushes.
			if len(buffers[l.to.Group()]) >= 1+rng.Intn(8) {
				flush(l.to.Group())
			}
			continue
		}
		flush(buffered[rng.Intn(len(buffered))])
	}
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	if cfg.OnEngines != nil {
		cfg.OnEngines(engines)
	}
	return rec, seqs
}

// priorityReorder mirrors the node runtime's receiver-side
// control-priority drain (runtime.Node.take) exactly: the head is kept
// first (take's fairness rule always selects it), then control
// envelopes whose sender has no earlier unpromoted envelope, then the
// rest in arrival order — for every sender the subsequence is
// unchanged, so per-link FIFO is preserved.
func priorityReorder(envs []amcast.Envelope) []amcast.Envelope {
	out := make([]amcast.Envelope, 0, len(envs))
	promoted := make([]bool, len(envs))
	blocked := make(map[amcast.NodeID]bool)
	promoted[0] = true
	out = append(out, envs[0])
	for i := 1; i < len(envs); i++ {
		env := envs[i]
		if !env.Kind.IsPayload() && !blocked[env.From] {
			promoted[i] = true
			out = append(out, env)
			continue
		}
		blocked[env.From] = true
	}
	for i, env := range envs {
		if !promoted[i] {
			out = append(out, env)
		}
	}
	return out
}

// RunChunked executes one seeded chunked run (random chunk sizes and
// link interleavings, everything through amcast.BatchStep) and returns
// the recorded trace. Store-backed tests combine it with
// RandomConfig.OnEngines to compare state digests against a
// per-envelope execution of the same workload.
func RunChunked(t *testing.T, cfg RandomConfig, runSeed int64) *trace.Recorder {
	t.Helper()
	rec, _ := chunkedRun(t, cfg, runSeed)
	return rec
}

// RunChunkedSafety exercises the weak (protocol-equivalence) form of the
// amcast.BatchStepper contract: a random workload is driven through the
// engines entirely via BatchStep with seeded random chunk sizes and link
// interleavings, and the recorded run must satisfy the full atomic
// multicast specification. The same seeds must also reproduce the exact
// run (determinism over batch sequences — what replicated groups need),
// and chunk boundaries must not lose deliveries (agreement implies every
// multicast lands everywhere).
func RunChunkedSafety(t *testing.T, cfg RandomConfig, minimality bool) {
	t.Helper()
	for runSeed := int64(1); runSeed <= 3; runSeed++ {
		rec, seqs := chunkedRun(t, cfg, runSeed)
		if err := rec.CheckAll(minimality); err != nil {
			t.Fatalf("chunked run (seed %d/%d) violates spec: %v", cfg.Seed, runSeed, err)
		}
		if rec.Deliveries() == 0 {
			t.Fatalf("chunked run (seed %d/%d) delivered nothing", cfg.Seed, runSeed)
		}
		rec2, seqs2 := chunkedRun(t, cfg, runSeed)
		if rec.Deliveries() != rec2.Deliveries() || !reflect.DeepEqual(seqs, seqs2) {
			t.Fatalf("chunked run (seed %d/%d) is not deterministic", cfg.Seed, runSeed)
		}
	}
}
