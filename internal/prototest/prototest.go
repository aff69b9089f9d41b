// Package prototest provides shared machinery for protocol-level tests:
// a scripted router that lets a test deliver protocol envelopes in a
// chosen interleaving, and a randomized workload runner that drives any
// protocol over the simulator and hands the recorded run to the
// trace checkers. It is imported only by _test files.
package prototest

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/sim"
	"flexcast/internal/trace"
)

// EngineFactory builds one protocol engine per group.
type EngineFactory func(g amcast.GroupID) amcast.Engine

// Router drives a set of engines by hand: outputs are parked in flight
// and the test chooses which envelope to deliver next, simulating any
// link interleaving (per-link FIFO is preserved).
type Router struct {
	t       *testing.T
	engines map[amcast.GroupID]amcast.Engine
	// flight[link] is the FIFO of in-flight envelopes per (from,to) link.
	flight map[link][]amcast.Envelope
	// Deliveries accumulates everything the engines delivered.
	Deliveries map[amcast.GroupID][]amcast.MsgID
	Recorder   *trace.Recorder
}

type link struct{ from, to amcast.NodeID }

// NewRouter builds engines for the given groups.
func NewRouter(t *testing.T, groups []amcast.GroupID, f EngineFactory) *Router {
	t.Helper()
	r := &Router{
		t:          t,
		engines:    make(map[amcast.GroupID]amcast.Engine),
		flight:     make(map[link][]amcast.Envelope),
		Deliveries: make(map[amcast.GroupID][]amcast.MsgID),
		Recorder:   trace.NewRecorder(),
	}
	for _, g := range groups {
		r.engines[g] = f(g)
	}
	return r
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
	env := amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m}
	r.Recorder.OnSend(m.Sender, amcast.GroupNode(at), env)
	r.feed(at, env)
}

func (r *Router) feed(g amcast.GroupID, env amcast.Envelope) {
	eng, ok := r.engines[g]
	if !ok {
		r.t.Fatalf("prototest: envelope for unknown group %d", g)
	}
	for _, out := range eng.OnEnvelope(env) {
		l := link{from: amcast.GroupNode(g), to: out.To}
		e := out.Env
		r.Recorder.OnSend(l.from, l.to, e)
		r.flight[l] = append(r.flight[l], e)
	}
	for _, d := range eng.TakeDeliveries() {
		if err := r.Recorder.OnDeliver(d); err != nil {
			r.t.Fatal(err)
		}
		r.Deliveries[d.Group] = append(r.Deliveries[d.Group], d.Msg.ID)
	}
}

// InFlight reports how many envelopes are parked.
func (r *Router) InFlight() int {
	n := 0
	for _, q := range r.flight {
		n += len(q)
	}
	return n
}

// Step delivers the oldest in-flight envelope on the (from→to) link that
// matches kind and message id (0 id matches any). It fails the test when
// no such envelope exists.
func (r *Router) Step(from, to amcast.GroupID, kind amcast.Kind, id uint64) {
	r.t.Helper()
	l := link{from: amcast.GroupNode(from), to: amcast.GroupNode(to)}
	q := r.flight[l]
	if len(q) == 0 {
		r.t.Fatalf("prototest: no envelope in flight on %d->%d", from, to)
	}
	head := q[0]
	if head.Kind != kind || (id != 0 && head.Msg.ID != amcast.MsgID(id)) {
		r.t.Fatalf("prototest: head of %d->%d is %s %s, want %s %d",
			from, to, head.Kind, head.Msg.ID, kind, id)
	}
	r.flight[l] = q[1:]
	r.feed(to, head)
}

// LinkDepth reports how many envelopes are in flight on the (from→to)
// link.
func (r *Router) LinkDepth(from, to amcast.GroupID) int {
	return len(r.flight[link{from: amcast.GroupNode(from), to: amcast.GroupNode(to)}])
}

// StepAny delivers the oldest in-flight envelope on the (from→to) link,
// whatever its kind. It fails the test when the link is empty.
func (r *Router) StepAny(from, to amcast.GroupID) {
	r.t.Helper()
	l := link{from: amcast.GroupNode(from), to: amcast.GroupNode(to)}
	q := r.flight[l]
	if len(q) == 0 {
		r.t.Fatalf("prototest: no envelope in flight on %d->%d", from, to)
	}
	r.flight[l] = q[1:]
	r.feed(to, q[0])
}

// Drain delivers all remaining in-flight envelopes in a deterministic
// link order until quiescence.
func (r *Router) Drain() {
	for {
		links := make([]link, 0, len(r.flight))
		for l, q := range r.flight {
			if len(q) > 0 && !l.to.IsClient() {
				links = append(links, l)
			}
		}
		if len(links) == 0 {
			return
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i].from != links[j].from {
				return links[i].from < links[j].from
			}
			return links[i].to < links[j].to
		})
		for _, l := range links {
			q := r.flight[l]
			r.flight[l] = q[1:]
			r.feed(l.to.Group(), q[0])
		}
	}
}

// Seq returns a group's delivery sequence.
func (r *Router) Seq(g amcast.GroupID) []amcast.MsgID {
	return append([]amcast.MsgID(nil), r.Deliveries[g]...)
}

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
	// Jitter adds random per-transmission latency (FIFO still enforced),
	// exercising adversarial interleavings across links.
	Jitter sim.Time
	// NextMessage, when non-nil, replaces the uniform random workload:
	// it builds client c's i-th multicast (id, destinations, payload)
	// from the given rng. Store-backed tests use it to generate
	// executable gTPC-C transaction payloads.
	NextMessage func(c, i int, rng *rand.Rand) amcast.Message
	// OnEngines, when non-nil, observes the engines after the run
	// quiesces (digest comparisons across execution strategies).
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
	return runRandom(t, cfg, false)
}

// RunRandomNoFIFO is RunRandom with the per-link FIFO clamp disabled,
// for protocols (like Skeen's) that do not rely on FIFO channels.
func RunRandomNoFIFO(t *testing.T, cfg RandomConfig) *trace.Recorder {
	t.Helper()
	return runRandom(t, cfg, true)
}

// snapTap wraps one engine during RunSnapshotReplay: it logs inputs,
// snapshots after snapAfter envelopes, and records the outputs and
// deliveries produced after the snapshot point for later comparison.
type snapTap struct {
	eng       amcast.SnapshotEngine
	snapAfter int
	inputs    int
	snap      amcast.Snapshot
	log       []amcast.Envelope
	outs      [][]amcast.Output
	dels      [][]amcast.Delivery
}

func (s *snapTap) consume(env amcast.Envelope) ([]amcast.Output, []amcast.Delivery) {
	s.inputs++
	logged := s.inputs > s.snapAfter
	if logged {
		s.log = append(s.log, env)
	}
	outs := s.eng.OnEnvelope(env)
	dels := s.eng.TakeDeliveries()
	if logged {
		s.outs = append(s.outs, outs)
		s.dels = append(s.dels, dels)
	}
	if s.inputs == s.snapAfter {
		s.snap = s.eng.Snapshot()
	}
	return outs, dels
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
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := sim.New()
	taps := make(map[amcast.GroupID]*snapTap, len(cfg.Groups))

	lat := make(map[[2]amcast.NodeID]sim.Time)
	latency := func(from, to amcast.NodeID) sim.Time {
		key := [2]amcast.NodeID{from, to}
		l, ok := lat[key]
		if !ok {
			l = sim.Time(100 + rng.Intn(1900))
			lat[key] = l
		}
		return l
	}
	net := sim.NewNetwork(s, latency)
	for _, g := range cfg.Groups {
		g := g
		eng, ok := cfg.Factory(g).(amcast.SnapshotEngine)
		if !ok {
			t.Fatalf("prototest: engine for group %d does not implement amcast.SnapshotEngine", g)
		}
		tap := &snapTap{eng: eng, snapAfter: snapAfter, snap: eng.Snapshot()}
		taps[g] = tap
		net.Register(amcast.GroupNode(g), sim.HandlerFunc(func(env amcast.Envelope) {
			outs, _ := tap.consume(env)
			for _, out := range outs {
				net.Send(amcast.GroupNode(g), out.To, out.Env)
			}
		}))
	}
	for c := 0; c < cfg.Clients; c++ {
		cid := amcast.ClientNode(c)
		net.Register(cid, sim.HandlerFunc(func(env amcast.Envelope) {}))
		for i := 0; i < cfg.Messages; i++ {
			m := cfg.message(c, i, rng)
			at := sim.Time(rng.Int63n(50_000))
			s.ScheduleAt(at, func() {
				for _, to := range cfg.Route(m) {
					net.Send(cid, to, amcast.Envelope{Kind: amcast.KindRequest, From: cid, Msg: m})
				}
			})
		}
	}
	s.Run()

	if cfg.OnEngines != nil {
		engines := make(map[amcast.GroupID]amcast.Engine, len(taps))
		for g, tap := range taps {
			engines[g] = tap.eng
		}
		cfg.OnEngines(engines)
	}

	for _, g := range cfg.Groups {
		tap := taps[g]
		fresh, _ := cfg.Factory(g).(amcast.SnapshotEngine)
		if err := fresh.Restore(tap.snap); err != nil {
			t.Fatalf("prototest: restore at group %d: %v", g, err)
		}
		// Restore discards undrained deliveries; at the snapshot point the
		// live engine had just been drained, so start replay drained too.
		fresh.TakeDeliveries()
		for i, env := range tap.log {
			outs := fresh.OnEnvelope(env)
			dels := fresh.TakeDeliveries()
			if !reflect.DeepEqual(normOuts(outs), normOuts(tap.outs[i])) {
				t.Fatalf("prototest: group %d diverged on replayed input %d (%s %s): outputs %v != live %v",
					g, i, env.Kind, env.Msg.ID, outs, tap.outs[i])
			}
			if !reflect.DeepEqual(normDels(dels), normDels(tap.dels[i])) {
				t.Fatalf("prototest: group %d diverged on replayed input %d (%s %s): deliveries %v != live %v",
					g, i, env.Kind, env.Msg.ID, dels, tap.dels[i])
			}
		}
	}
}

// normOuts and normDels map empty slices to nil so DeepEqual ignores the
// nil-vs-empty distinction.
func normOuts(o []amcast.Output) []amcast.Output {
	if len(o) == 0 {
		return nil
	}
	return o
}

func normDels(d []amcast.Delivery) []amcast.Delivery {
	if len(d) == 0 {
		return nil
	}
	return d
}

func runRandom(t *testing.T, cfg RandomConfig, noFIFO bool) *trace.Recorder {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := sim.New()
	rec := trace.NewRecorder()

	// Random but fixed link latencies in [100, 2000] µs.
	lat := make(map[[2]amcast.NodeID]sim.Time)
	latency := func(from, to amcast.NodeID) sim.Time {
		key := [2]amcast.NodeID{from, to}
		l, ok := lat[key]
		if !ok {
			l = sim.Time(100 + rng.Intn(1900))
			lat[key] = l
		}
		return l
	}
	opts := []sim.NetworkOption{sim.WithSendHook(func(from, to amcast.NodeID, env amcast.Envelope) {
		rec.OnSend(from, to, env)
	})}
	if cfg.Jitter > 0 {
		j := cfg.Jitter
		opts = append(opts, sim.WithJitter(func(from, to amcast.NodeID) sim.Time {
			return sim.Time(rng.Int63n(int64(j)))
		}))
	}
	if noFIFO {
		opts = append(opts, sim.WithoutFIFO())
	}
	net := sim.NewNetwork(s, latency, opts...)

	var checkErr error
	engines := make(map[amcast.GroupID]amcast.Engine, len(cfg.Groups))
	for _, g := range cfg.Groups {
		g := g
		eng := cfg.Factory(g)
		engines[g] = eng
		net.Register(amcast.GroupNode(g), sim.HandlerFunc(func(env amcast.Envelope) {
			for _, out := range eng.OnEnvelope(env) {
				net.Send(amcast.GroupNode(g), out.To, out.Env)
			}
			for _, d := range eng.TakeDeliveries() {
				if err := rec.OnDeliver(d); err != nil && checkErr == nil {
					checkErr = err
				}
			}
		}))
	}
	// Clients fire all their messages up front at random times; replies
	// are not needed for the property checks.
	for c := 0; c < cfg.Clients; c++ {
		cid := amcast.ClientNode(c)
		net.Register(cid, sim.HandlerFunc(func(env amcast.Envelope) {}))
		for i := 0; i < cfg.Messages; i++ {
			m := cfg.message(c, i, rng)
			rec.OnMulticast(m)
			at := sim.Time(rng.Int63n(50_000))
			s.ScheduleAt(at, func() {
				for _, to := range cfg.Route(m) {
					net.Send(cid, to, amcast.Envelope{Kind: amcast.KindRequest, From: cid, Msg: m})
				}
			})
		}
	}
	s.Run()
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	if cfg.OnEngines != nil {
		cfg.OnEngines(engines)
	}
	return rec
}
