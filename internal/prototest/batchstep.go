package prototest

import (
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/simhost"
)

// perEnvelope hides an engine's amcast.BatchStepper, so amcast.BatchStep
// runs it through OnEnvelope.
type perEnvelope struct{ amcast.Engine }

// RunBatchEquivalence exercises the strong form of the
// amcast.BatchStepper contract under a random workload: the live run
// steps every group through OnEnvelope, one envelope at a time, and
// logs its input sequence; afterwards a fresh engine per group replays
// its log through amcast.BatchStep in random chunk sizes. The
// concatenated outputs and deliveries must be identical to the live
// run's. This holds for the
// Skeen and hierarchical engines, whose batch fast paths change only
// delivery timing within a chunk; the FlexCast engine consolidates acks
// across a chunk and is validated by RunChunkedSafety instead.
func RunBatchEquivalence(t *testing.T, cfg RandomConfig) {
	t.Helper()
	w := newWorld(t, cfg.Groups, func(g amcast.GroupID) amcast.Engine { return perEnvelope{cfg.Factory(g)} }, simhost.Config{Keep: true})
	rng := w.simulate(cfg, false)

	for _, g := range cfg.Groups {
		inputs, liveOuts, liveDels := w.log(g)
		fresh := cfg.Factory(g)
		var outs []amcast.Output
		var dels []amcast.Delivery
		for i, n := 0, 0; i < len(inputs); i += n {
			n = min(1+rng.Intn(8), len(inputs)-i)
			outs = append(outs, amcast.BatchStep(fresh, inputs[i:i+n])...)
			dels = append(dels, fresh.TakeDeliveries()...)
		}
		if !reflect.DeepEqual(norm(outs), norm(liveOuts)) {
			t.Fatalf("prototest: group %d BatchStep outputs diverge from OnEnvelope (inputs=%d)", g, len(inputs))
		}
		if !reflect.DeepEqual(norm(dels), norm(liveDels)) {
			t.Fatalf("prototest: group %d BatchStep deliveries diverge from OnEnvelope (inputs=%d)", g, len(inputs))
		}
	}
}
