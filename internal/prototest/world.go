package prototest

import (
	"math/rand"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/sim"
	"flexcast/internal/simhost"
	"flexcast/internal/trace"
)

// world is the protocol tests' simulated host: MaxBatch 1 unless the
// source seeds it, the run recorded, a failure fails the test and every
// chunk is poisoned after its step (it was only lent to the engine).
type world struct {
	*simhost.Host
	t *testing.T
}

// newWorld hosts one engine per group; cfg adds what a source needs.
func newWorld(t *testing.T, groups []amcast.GroupID, f EngineFactory, cfg simhost.Config) *world {
	cfg.Groups, cfg.Rec = groups, trace.NewRecorder()
	cfg.NewEngine = func(g amcast.GroupID) (amcast.Engine, error) { return f(g), nil }
	if cfg.MaxBatch == nil {
		cfg.MaxBatch = func(amcast.GroupID) int { return 1 }
	}
	cfg.Fail = func(err error) { t.Fatal(err) }
	onStep := cfg.OnStep
	cfg.OnStep = func(g amcast.GroupID, chunk []amcast.Envelope, dels []amcast.Delivery) {
		Poison(chunk)
		if onStep != nil {
			onStep(g, chunk, dels)
		}
	}
	h, err := simhost.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &world{Host: h, t: t}
}

// request records a client's request to a group and hands it over.
func (w *world) request(from, to amcast.NodeID, env amcast.Envelope) {
	w.Rec.OnSend(from, to, env)
	w.Hand(to.Group(), env)
}

// log concatenates group g's steps.
func (w *world) log(g amcast.GroupID) (in []amcast.Envelope, outs []amcast.Output, dels []amcast.Delivery) {
	for _, s := range w.Log(g) {
		in = append(in, s.In...)
		outs = append(outs, s.Outs...)
		dels = append(dels, s.Dels...)
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
	var opts []sim.NetworkOption
	if cfg.Jitter > 0 {
		opts = append(opts, sim.WithJitter(func(from, to amcast.NodeID) sim.Time {
			return sim.Time(rng.Int63n(int64(cfg.Jitter)))
		}))
	}
	if noFIFO {
		opts = append(opts, sim.WithoutFIFO())
	}
	draw := func(n int64) int64 { return int64(rng.Intn(int(n))) }
	w.Attach(sim.NewNetwork(s, simhost.Latencies(draw, 100, 2000), opts...))
	for c := 0; c < cfg.Clients; c++ {
		cid := amcast.ClientNode(c)
		for i := 0; i < cfg.Messages; i++ {
			m := cfg.message(c, i, rng)
			w.Rec.OnMulticast(m)
			s.ScheduleAt(sim.Time(rng.Int63n(50_000)), func() {
				for _, to := range cfg.Route(m) {
					w.Transmit(cid, to, amcast.Envelope{Kind: amcast.KindRequest, From: cid, Msg: m})
				}
			})
		}
	}
	s.Run()
	if cfg.OnEngines != nil {
		cfg.OnEngines(w.Engines)
	}
	return rng
}
