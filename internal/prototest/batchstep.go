package prototest

import (
	"math/rand"
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/sim"
)

// RunBatchEquivalence exercises the strong form of the
// amcast.BatchStepper contract under a random workload: the live run
// drives engines envelope by envelope and logs every group's input
// sequence; afterwards a fresh engine per group replays its log through
// amcast.BatchStep in random chunk sizes. The concatenated outputs and
// deliveries must be identical to the live run's. This holds for the
// Skeen and hierarchical engines, whose batch fast paths change only
// delivery timing within a chunk; the FlexCast engine consolidates acks
// across a chunk and is validated by RunChunkedSafety instead.
func RunBatchEquivalence(t *testing.T, cfg RandomConfig) {
	t.Helper()
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := sim.New()

	type tap struct {
		eng    amcast.Engine
		inputs []amcast.Envelope
		outs   []amcast.Output
		dels   []amcast.Delivery
	}
	taps := make(map[amcast.GroupID]*tap, len(cfg.Groups))

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
		tp := &tap{eng: cfg.Factory(g)}
		taps[g] = tp
		net.Register(amcast.GroupNode(g), sim.HandlerFunc(func(env amcast.Envelope) {
			tp.inputs = append(tp.inputs, env)
			outs := tp.eng.OnEnvelope(env)
			tp.outs = append(tp.outs, outs...)
			tp.dels = append(tp.dels, tp.eng.TakeDeliveries()...)
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

	for _, g := range cfg.Groups {
		tp := taps[g]
		fresh := cfg.Factory(g)
		var outs []amcast.Output
		var dels []amcast.Delivery
		for i := 0; i < len(tp.inputs); {
			n := 1 + rng.Intn(8)
			if i+n > len(tp.inputs) {
				n = len(tp.inputs) - i
			}
			outs = append(outs, amcast.BatchStep(fresh, tp.inputs[i:i+n])...)
			dels = append(dels, fresh.TakeDeliveries()...)
			i += n
		}
		if !reflect.DeepEqual(normOuts(outs), normOuts(tp.outs)) {
			t.Fatalf("prototest: group %d BatchStep outputs diverge from OnEnvelope (inputs=%d)", g, len(tp.inputs))
		}
		if !reflect.DeepEqual(normDels(dels), normDels(tp.dels)) {
			t.Fatalf("prototest: group %d BatchStep deliveries diverge from OnEnvelope (inputs=%d)", g, len(tp.inputs))
		}
	}
}
