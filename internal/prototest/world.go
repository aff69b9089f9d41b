package prototest

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/runtime"
	"flexcast/internal/sim"
	"flexcast/internal/trace"
)

// world hosts every group of a protocol test as a stepped runtime.Node
// and keeps what the run did: one trace recorder, one step log per
// group (its input log, with what each step sent and delivered) and the
// envelopes in flight. A schedule source decides what moves next: the
// test's script (Router), the seeded simulated network (simulate) or
// the seeded chunked choice (chunkedRun).
type world struct {
	t       *testing.T
	rec     *trace.Recorder
	engines map[amcast.GroupID]amcast.Engine
	groups  map[amcast.GroupID]*group
	// links holds the envelopes in flight of the scripted and chunked
	// sources; net, when set, carries them instead.
	links links
	net   *sim.Network
	// maxBatch is the chunked source's MaxBatch per group. Without it
	// every node runs one envelope per step and steps as soon as it is
	// handed one: the scripted and sim sources.
	maxBatch map[amcast.GroupID]int
	// backlogged counts the steps that popped a backlog: a queue longer
	// than a MaxBatch above 1.
	backlogged int
	// keep keeps every step in the step log; without it the log holds
	// only the step in progress. Only the replay checks read the log.
	keep bool
	// onStep, when set, observes a group right after each of its steps.
	onStep func(g amcast.GroupID)
	buf    []amcast.Envelope
}

// group is one hosted group's node and step log.
type group struct {
	node  *runtime.Node
	steps []step
}

// step is one node step: the chunk it took, what it sent to groups (in
// send order, which at MaxBatch 1 is the engine's output order) and
// what it delivered.
type step struct {
	in   []amcast.Envelope
	outs []amcast.Output
	dels []amcast.Delivery
}

// link is one directed channel between nodes.
type link struct{ from, to amcast.NodeID }

// links is the scripted and chunked sources' table of envelopes in
// flight: per link, oldest first.
type links map[link][]amcast.Envelope

// busy returns the links with envelopes in flight, in (from, to) order.
func (ls links) busy() []link {
	var out []link
	for l, q := range ls {
		if len(q) > 0 {
			out = append(out, l)
		}
	}
	slices.SortFunc(out, func(a, b link) int { return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to)) })
	return out
}

// newWorld hosts one engine per group.
func newWorld(t *testing.T, groups []amcast.GroupID, f EngineFactory, maxBatch map[amcast.GroupID]int) *world {
	w := &world{
		t:        t,
		rec:      trace.NewRecorder(),
		engines:  make(map[amcast.GroupID]amcast.Engine, len(groups)),
		groups:   make(map[amcast.GroupID]*group, len(groups)),
		links:    make(links),
		maxBatch: maxBatch,
	}
	for _, g := range groups {
		h := &group{}
		from := amcast.GroupNode(g)
		w.engines[g] = f(g)
		h.node = runtime.NewStepped(w.engines[g], func(to amcast.NodeID, envs []amcast.Envelope) {
			if to.IsClient() {
				// No source moves a reply: on the simulated network it
				// would draw a latency from the seeded stream.
				return
			}
			for _, env := range envs {
				w.transmit(from, to, env)
				s := &h.steps[len(h.steps)-1]
				s.outs = append(s.outs, amcast.Output{To: to, Env: env})
			}
		}, runtime.Config{
			MaxBatch: max(1, maxBatch[g]),
			// One goroutine steps every node: Submit must never wait.
			QueueDepth: math.MaxInt,
			OnDeliver: func(d amcast.Delivery) {
				if err := w.rec.OnDeliver(d); err != nil {
					t.Fatal(err)
				}
				s := &h.steps[len(h.steps)-1]
				s.dels = append(s.dels, d)
			},
		})
		w.groups[g] = h
	}
	return w
}

// hand queues env at group g's node: the one way an envelope reaches a
// hosted group.
func (w *world) hand(g amcast.GroupID, env amcast.Envelope) {
	h, ok := w.groups[g]
	if !ok {
		w.t.Fatalf("prototest: envelope for unknown group %d", g)
	}
	h.node.Submit([]amcast.Envelope{env})
	if w.maxBatch == nil {
		w.step(g)
	}
}

// step runs one chunk of group g's queue and logs it (when the world
// keeps a log), then poisons the chunk buffer: the chunk was only lent
// to the engine.
func (w *world) step(g amcast.GroupID) {
	h := w.groups[g]
	if mb := w.maxBatch[g]; mb > 1 && h.node.QueueLen() > mb {
		w.backlogged++
	}
	h.steps = append(h.steps, step{})
	w.buf = h.node.Step(w.buf)
	if w.keep {
		h.steps[len(h.steps)-1].in = slices.Clone(w.buf)
	} else {
		h.steps = h.steps[:0]
	}
	Poison(w.buf)
	if w.onStep != nil {
		w.onStep(g)
	}
}

// request records a client's request to a group and hands it over.
func (w *world) request(from, to amcast.NodeID, env amcast.Envelope) {
	w.rec.OnSend(from, to, env)
	w.hand(to.Group(), env)
}

// transmit records a send to a group and puts it in flight.
func (w *world) transmit(from, to amcast.NodeID, env amcast.Envelope) {
	w.rec.OnSend(from, to, env)
	if w.net != nil {
		w.net.Send(from, to, env)
	} else {
		w.links[link{from, to}] = append(w.links[link{from, to}], env)
	}
}

// move hands the oldest envelope in flight on l to its destination.
func (w *world) move(l link) {
	q := w.links[l]
	w.links[l] = q[1:]
	w.hand(l.to.Group(), q[0])
}

// log concatenates group g's steps.
func (w *world) log(g amcast.GroupID) (in []amcast.Envelope, outs []amcast.Output, dels []amcast.Delivery) {
	for _, s := range w.groups[g].steps {
		in = append(in, s.in...)
		outs = append(outs, s.outs...)
		dels = append(dels, s.dels...)
	}
	return in, outs, dels
}

// simulate is the sim source. Every client's multicasts enter at seeded
// times, and every send to a group crosses a sim.Network link with a
// seeded fixed latency in [100, 2000) µs, plus seeded jitter when
// cfg.Jitter > 0; links are FIFO unless noFIFO. Only multicasts, latencies
// and jitter draw from the seeded stream (a reply never reaches the
// network), so a seed names one schedule. It runs to quiescence and
// returns the stream, for checks that continue it.
func (w *world) simulate(cfg RandomConfig, noFIFO bool) *rand.Rand {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := sim.New()
	lat := make(map[link]sim.Time)
	latency := func(from, to amcast.NodeID) sim.Time {
		l, ok := lat[link{from, to}]
		if !ok {
			l = sim.Time(100 + rng.Intn(1900))
			lat[link{from, to}] = l
		}
		return l
	}
	var opts []sim.NetworkOption
	if cfg.Jitter > 0 {
		opts = append(opts, sim.WithJitter(func(from, to amcast.NodeID) sim.Time {
			return sim.Time(rng.Int63n(int64(cfg.Jitter)))
		}))
	}
	if noFIFO {
		opts = append(opts, sim.WithoutFIFO())
	}
	w.net = sim.NewNetwork(s, latency, opts...)
	for _, g := range cfg.Groups {
		w.net.Register(amcast.GroupNode(g), sim.HandlerFunc(func(env amcast.Envelope) { w.hand(g, env) }))
	}
	for c := 0; c < cfg.Clients; c++ {
		cid := amcast.ClientNode(c)
		for i := 0; i < cfg.Messages; i++ {
			m := cfg.message(c, i, rng)
			w.rec.OnMulticast(m)
			s.ScheduleAt(sim.Time(rng.Int63n(50_000)), func() {
				for _, to := range cfg.Route(m) {
					w.transmit(cid, to, amcast.Envelope{Kind: amcast.KindRequest, From: cid, Msg: m})
				}
			})
		}
	}
	s.Run()
	if cfg.OnEngines != nil {
		cfg.OnEngines(w.engines)
	}
	return rng
}
