package main

import (
	"flexcast/amcast"
	"flexcast/internal/codec"
)

// spanEngine is the benchmark's pass-through decorator: it forwards
// every amcast.SnapshotEngine and amcast.BatchStepper call to the engine
// it wraps and records one span around each. Interposed at every
// wrapping boundary of the stack (durable over store over protocol
// engine) it turns the nesting of the wrappers into parent/child spans,
// so each layer's self time falls out of the fold. It changes nothing
// the wrapped engine sees or returns.
type spanEngine struct {
	inner amcast.SnapshotEngine
	rec   *recorder
	layer layerID
}

// decorate wraps eng with spans of the given layer; without a recorder
// the engine is returned as is (the undecorated reference stack).
func decorate(rec *recorder, layer layerID, eng amcast.SnapshotEngine) amcast.SnapshotEngine {
	if rec == nil {
		return eng
	}
	return &spanEngine{inner: eng, rec: rec, layer: layer}
}

func (e *spanEngine) Group() amcast.GroupID { return e.inner.Group() }

func (e *spanEngine) OnEnvelope(env amcast.Envelope) []amcast.Output {
	h := e.rec.begin(e.layer, uint64(env.Msg.ID))
	outs := e.inner.OnEnvelope(env)
	e.rec.end(h, 0)
	return outs
}

func (e *spanEngine) BatchStep(envs []amcast.Envelope) []amcast.Output {
	if len(envs) == 0 {
		return nil
	}
	// A durable span carries the size of the batch's wire frame: what the
	// durable layer appends to its log for it.
	bytes := 0
	if e.layer == layDurable {
		bytes = codec.BatchSize(envs)
	}
	h := e.rec.begin(e.layer, uint64(envs[0].Msg.ID))
	outs := amcast.BatchStep(e.inner, envs)
	e.rec.end(h, bytes)
	return outs
}

func (e *spanEngine) TakeDeliveries() []amcast.Delivery {
	h := e.rec.begin(e.layer, 0)
	dels := e.inner.TakeDeliveries()
	if len(dels) > 0 {
		e.rec.spans[h].msg = uint64(dels[0].Msg.ID)
	}
	e.rec.end(h, 0)
	return dels
}

func (e *spanEngine) Snapshot() amcast.Snapshot {
	h := e.rec.begin(e.layer, 0)
	s := e.inner.Snapshot()
	e.rec.end(h, 0)
	return s
}

func (e *spanEngine) Restore(s amcast.Snapshot) error {
	h := e.rec.begin(e.layer, 0)
	err := e.inner.Restore(s)
	e.rec.end(h, 0)
	return err
}

var (
	_ amcast.SnapshotEngine = (*spanEngine)(nil)
	_ amcast.BatchStepper   = (*spanEngine)(nil)
)
