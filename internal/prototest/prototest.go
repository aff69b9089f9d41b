// Package prototest holds the protocol tests' schedule sources over the
// simulated host (internal/simhost), which steps every group as a
// runtime.Node, records the run for the trace checkers and logs each
// group's steps; prototest fails the test on what the host reports and
// poisons each chunk after its step. A schedule source picks what moves
// next: the test's script (Router); a seeded sim.Network (RunRandom,
// RunRandomNoFIFO and the replay checks RunSnapshotReplay,
// RunBatchEquivalence and RunDurableReplay, whose crash images recover
// through the host's audited recovery); or a seeded chunked choice of
// which envelope moves and which node steps (RunChunked,
// RunChunkedSafety). Only test code imports it: the in-package tests of
// core and store among them, which is why the host imports no engine.
package prototest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/sim"
	"flexcast/internal/simhost"
	"flexcast/internal/trace"
)

// EngineFactory builds one protocol engine per group.
type EngineFactory func(g amcast.GroupID) amcast.Engine

// Router is the scripted schedule source: outputs are parked on their
// links and the test chooses which envelope to deliver next, simulating
// any link interleaving (per-link FIFO is preserved).
type Router struct {
	w *world
	// Recorder is the run's trace.
	Recorder *trace.Recorder
}

// NewRouter hosts one engine per group.
func NewRouter(t *testing.T, groups []amcast.GroupID, f EngineFactory) *Router {
	t.Helper()
	w := newWorld(t, groups, f, simhost.Config{})
	return &Router{w: w, Recorder: w.Rec}
}

// Msg builds a test message. Destination order is normalized.
func Msg(id uint64, dst ...amcast.GroupID) amcast.Message {
	return amcast.Message{
		ID:     amcast.MsgID(id),
		Sender: amcast.ClientNode(0),
		Dst:    amcast.NormalizeDst(dst),
	}
}

// Multicast injects a client request at the given group.
func (r *Router) Multicast(at amcast.GroupID, m amcast.Message) {
	r.Recorder.OnMulticast(m)
	r.w.request(m.Sender, amcast.GroupNode(at), amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
}

// InFlight reports how many envelopes are parked.
func (r *Router) InFlight() int {
	n := 0
	for _, q := range r.w.Links {
		n += len(q)
	}
	return n
}

// head returns the oldest envelope in flight on the (from→to) link. It
// fails the test when the link is empty.
func (r *Router) head(from, to amcast.GroupID) (simhost.Link, amcast.Envelope) {
	r.w.t.Helper()
	l := simhost.Link{From: amcast.GroupNode(from), To: amcast.GroupNode(to)}
	q := r.w.Links[l]
	if len(q) == 0 {
		r.w.t.Fatalf("prototest: no envelope in flight on %d->%d", from, to)
	}
	return l, q[0]
}

// Step delivers the oldest in-flight envelope on the (from→to) link that
// matches kind and message id (0 id matches any). It fails the test when
// no such envelope exists.
func (r *Router) Step(from, to amcast.GroupID, kind amcast.Kind, id uint64) {
	r.w.t.Helper()
	l, head := r.head(from, to)
	if head.Kind != kind || (id != 0 && head.Msg.ID != amcast.MsgID(id)) {
		r.w.t.Fatalf("prototest: head of %d->%d is %s %s, want %s %d",
			from, to, head.Kind, head.Msg.ID, kind, id)
	}
	r.w.Move(l)
}

// LinkDepth reports how many envelopes are in flight on the (from→to)
// link.
func (r *Router) LinkDepth(from, to amcast.GroupID) int {
	return len(r.w.Links[simhost.Link{From: amcast.GroupNode(from), To: amcast.GroupNode(to)}])
}

// StepAny delivers the oldest in-flight envelope on the (from→to) link,
// whatever its kind. It fails the test when the link is empty.
func (r *Router) StepAny(from, to amcast.GroupID) {
	r.w.t.Helper()
	l, _ := r.head(from, to)
	r.w.Move(l)
}

// Drain delivers all remaining in-flight envelopes in a deterministic
// link order until quiescence.
func (r *Router) Drain() {
	for busy := r.w.Links.Busy(); len(busy) > 0; busy = r.w.Links.Busy() {
		for _, l := range busy {
			r.w.Move(l)
		}
	}
}

// Seq returns a group's delivery sequence.
func (r *Router) Seq(g amcast.GroupID) []amcast.MsgID { return r.Recorder.Sequence(g) }

// RandomConfig parameterizes RunRandom.
type RandomConfig struct {
	// Groups is the group set (ids are arbitrary).
	Groups []amcast.GroupID
	// Clients is the number of concurrent multicast sources.
	Clients int
	// Messages is the number of multicasts per client.
	Messages int
	// MaxDst bounds the destination-set size (default: all groups).
	MaxDst int
	// Route maps a message to its entry node(s).
	Route func(m amcast.Message) []amcast.NodeID
	// Factory builds the engines.
	Factory EngineFactory
	// Seed drives destinations and link latencies.
	Seed int64
	// Jitter adds random per-transmission latency on every simulated
	// link, the replay checks' included.
	Jitter sim.Time
	// NextMessage, when non-nil, replaces the uniform random workload:
	// it builds client c's i-th multicast (id, destinations, payload)
	// from the given rng. Store-backed tests use it to generate
	// executable gTPC-C transaction payloads.
	NextMessage func(c, i int, rng *rand.Rand) amcast.Message
	// OnEngines, when non-nil, observes the engines after the run
	// quiesces (digest comparisons across execution strategies). Every
	// driver calls it with the engines it hosts: RunBatchEquivalence's
	// behind a per-envelope view, RunDurableReplay's without the durable
	// backend they ran behind.
	OnEngines func(engines map[amcast.GroupID]amcast.Engine)
}

// message builds client c's i-th multicast: via NextMessage when set,
// otherwise a uniform random destination set.
func (cfg *RandomConfig) message(c, i int, rng *rand.Rand) amcast.Message {
	if cfg.NextMessage != nil {
		return cfg.NextMessage(c, i, rng)
	}
	maxDst := len(cfg.Groups)
	if cfg.MaxDst > 0 && cfg.MaxDst < maxDst {
		maxDst = cfg.MaxDst
	}
	nDst := 1 + rng.Intn(maxDst)
	perm := rng.Perm(len(cfg.Groups))
	dst := make([]amcast.GroupID, 0, nDst)
	for _, p := range perm[:nDst] {
		dst = append(dst, cfg.Groups[p])
	}
	return amcast.Message{
		ID:      amcast.NewMsgID(c, uint64(i+1)),
		Sender:  amcast.ClientNode(c),
		Dst:     amcast.NormalizeDst(dst),
		Payload: []byte(fmt.Sprintf("payload-%d-%d", c, i)),
	}
}

// RunRandom drives a random workload through the protocol on the
// simulator and returns the recorded run after quiescence.
func RunRandom(t *testing.T, cfg RandomConfig) *trace.Recorder {
	t.Helper()
	w := newWorld(t, cfg.Groups, cfg.Factory, simhost.Config{})
	w.simulate(cfg, false)
	return w.Rec
}

// RunRandomNoFIFO is RunRandom with the per-link FIFO clamp disabled,
// for protocols (like Skeen's) that do not rely on FIFO channels.
func RunRandomNoFIFO(t *testing.T, cfg RandomConfig) *trace.Recorder {
	t.Helper()
	w := newWorld(t, cfg.Groups, cfg.Factory, simhost.Config{})
	w.simulate(cfg, true)
	return w.Rec
}

// RunSnapshotReplay exercises the amcast.SnapshotEngine contract under a
// random workload: every engine is snapshotted after snapAfter input
// envelopes (engines that see fewer inputs are snapshotted at their
// initial state), the live run continues to quiescence, and then a fresh
// engine per group is restored from the snapshot and replays the
// post-snapshot input log. The replayed outputs and deliveries must be
// identical to the live ones — any state missed by Snapshot/Restore, or
// any aliasing between snapshot and engine, shows up as a divergence.
func RunSnapshotReplay(t *testing.T, cfg RandomConfig, snapAfter int) {
	t.Helper()
	snaps := make(map[amcast.GroupID]amcast.Snapshot, len(cfg.Groups))
	var w *world
	w = newWorld(t, cfg.Groups, func(g amcast.GroupID) amcast.Engine {
		eng := cfg.Factory(g).(amcast.SnapshotEngine)
		snaps[g] = eng.Snapshot()
		return eng
	}, simhost.Config{Keep: true, OnStep: func(g amcast.GroupID, _ []amcast.Envelope, _ []amcast.Delivery) {
		if len(w.Log(g)) == snapAfter {
			snaps[g] = w.Engines[g].(amcast.SnapshotEngine).Snapshot()
		}
	}})
	w.simulate(cfg, false)

	for _, g := range cfg.Groups {
		fresh := cfg.Factory(g).(amcast.SnapshotEngine)
		if err := fresh.Restore(snaps[g]); err != nil {
			t.Fatalf("prototest: restore at group %d: %v", g, err)
		}
		// Restore discards undrained deliveries; at the snapshot point the
		// live engine had just been drained, so start replay drained too.
		fresh.TakeDeliveries()
		steps := w.Log(g)
		for i, live := range steps[min(snapAfter, len(steps)):] {
			env := live.In[0]
			outs := fresh.OnEnvelope(env)
			dels := fresh.TakeDeliveries()
			if !reflect.DeepEqual(norm(outs), norm(live.Outs)) || !reflect.DeepEqual(norm(dels), norm(live.Dels)) {
				t.Fatalf("prototest: group %d diverged on replayed input %d (%s %s): outputs %v, deliveries %v != live %v, %v",
					g, i, env.Kind, env.Msg.ID, outs, dels, live.Outs, live.Dels)
			}
		}
	}
}

// norm maps an empty slice to nil so DeepEqual ignores the nil-vs-empty
// distinction.
func norm[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
