// Package skeen implements Skeen's genuine atomic multicast protocol —
// the paper's "distributed" baseline (§3, §5.1). Its timestamp-based
// ordering mechanism underlies FastCast, WhiteBox, RamCast and others;
// with single-process groups those protocols all behave like Skeen's, so
// it is the canonical distributed genuine comparator.
//
// Protocol: the client sends m to every destination group. Each
// destination assigns m a local timestamp from a Lamport clock and sends
// it to the other destinations. When a destination knows all |m.dst|
// local timestamps, m's final timestamp is their maximum, and messages are
// delivered in final-timestamp order (ties broken by message id). A
// message is deliverable once its final timestamp is known and no other
// pending message could end up with a smaller final timestamp.
package skeen

import (
	"fmt"
	"sort"

	"flexcast/amcast"
)

// Config configures one Skeen engine.
type Config struct {
	// Group is the group this engine serves.
	Group amcast.GroupID
	// Groups is the full group set (used only for validation).
	Groups []amcast.GroupID
}

type pend struct {
	msg     amcast.Message
	hasMsg  bool
	localTS uint64
	hasTS   bool
	// ts holds the local timestamps received so far, keyed by group.
	ts map[amcast.GroupID]uint64
	// final caches the computed final timestamp once all are known.
	final    uint64
	hasFinal bool
}

// candTS is the lowest final timestamp m can still reach: the final
// timestamp when known, otherwise the local timestamp assigned here (the
// final is a maximum over all destinations, so it can only be larger).
func (p *pend) candTS() uint64 {
	if p.hasFinal {
		return p.final
	}
	return p.localTS
}

// Engine is the Skeen state machine for one group. It implements
// amcast.Engine. Not safe for concurrent use.
type Engine struct {
	g     amcast.GroupID
	clock uint64
	pend  map[amcast.MsgID]*pend
	// order is the set of pending ids; delivery scans it for the minimal
	// candidate (kept as a slice re-sorted on demand; pending sets are
	// small because messages drain quickly).
	delivered  amcast.IDSet
	deliveries []amcast.Delivery
	seq        uint64
}

var _ amcast.Engine = (*Engine)(nil)

var _ amcast.BatchStepper = (*Engine)(nil)

// New builds a Skeen engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Group == amcast.NoGroup {
		return nil, fmt.Errorf("skeen: missing group id")
	}
	return &Engine{
		g:    cfg.Group,
		pend: make(map[amcast.MsgID]*pend),
	}, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Group implements amcast.Engine.
func (e *Engine) Group() amcast.GroupID { return e.g }

// TakeDeliveries implements amcast.Engine.
func (e *Engine) TakeDeliveries() []amcast.Delivery {
	d := e.deliveries
	e.deliveries = nil
	return d
}

// Pending reports the number of messages awaiting delivery (tests).
func (e *Engine) Pending() int { return len(e.pend) }

// OnEnvelope implements amcast.Engine.
func (e *Engine) OnEnvelope(env amcast.Envelope) []amcast.Output {
	var outs []amcast.Output
	e.step(env, &outs)
	return outs
}

// BatchStep implements amcast.BatchStepper — the batch fast path: every
// envelope's state updates (timestamp assignment, TS bookkeeping) apply
// in order, and the delivery drain — which re-sorts the pending set —
// runs once per batch instead of once per envelope. The delivery
// sequence is unchanged: messages deliver in final-timestamp order, and
// a message arriving later in the batch is Lamport-stamped above every
// final timestamp already deliverable, so it can never overtake one.
func (e *Engine) BatchStep(envs []amcast.Envelope) []amcast.Output {
	var outs []amcast.Output
	for _, env := range envs {
		e.apply(env, &outs)
	}
	e.drain()
	return outs
}

func (e *Engine) step(env amcast.Envelope, outs *[]amcast.Output) {
	e.apply(env, outs)
	e.drain()
}

// apply performs one envelope's state updates without the trailing
// delivery drain.
func (e *Engine) apply(env amcast.Envelope, outs *[]amcast.Output) {
	switch env.Kind {
	case amcast.KindRequest:
		e.onRequest(env, outs)
	case amcast.KindTS:
		e.onTS(env)
	}
}

func (e *Engine) onRequest(env amcast.Envelope, outs *[]amcast.Output) {
	m := env.Msg
	if !m.HasDst(e.g) || e.delivered.Has(m.ID) {
		return
	}
	p := e.pending(m.ID)
	if p.hasMsg {
		return // duplicate request
	}
	p.msg = m
	p.hasMsg = true
	e.clock++
	p.localTS = e.clock
	p.hasTS = true
	p.ts[e.g] = p.localTS

	for _, d := range m.Dst {
		if d == e.g {
			continue
		}
		*outs = append(*outs, amcast.Output{
			To: amcast.GroupNode(d),
			Env: amcast.Envelope{
				Kind:   amcast.KindTS,
				From:   amcast.GroupNode(e.g),
				Msg:    m.Header(),
				TS:     p.localTS,
				TSFrom: e.g,
			},
		})
	}
	e.tryFinal(p)
}

func (e *Engine) onTS(env amcast.Envelope) {
	m := env.Msg
	if env.TS > e.clock {
		e.clock = env.TS
	}
	if !m.HasDst(e.g) || e.delivered.Has(m.ID) {
		return
	}
	p := e.pending(m.ID)
	if !p.hasMsg {
		// The timestamp overtook the client request; remember the header so
		// the destination count is known.
		p.msg = m
	}
	p.ts[env.TSFrom] = env.TS
	e.tryFinal(p)
}

func (e *Engine) pending(id amcast.MsgID) *pend {
	p, ok := e.pend[id]
	if !ok {
		p = &pend{ts: make(map[amcast.GroupID]uint64)}
		e.pend[id] = p
	}
	return p
}

func (e *Engine) tryFinal(p *pend) {
	if p.hasFinal || !p.hasTS || len(p.ts) < len(p.msg.Dst) {
		return
	}
	var max uint64
	for _, ts := range p.ts {
		if ts > max {
			max = ts
		}
	}
	p.final = max
	p.hasFinal = true
}

// drain delivers every message whose final timestamp is known and minimal
// among all pending candidates. Messages without a local timestamp yet
// (timestamp overtook the request) do not gate delivery: their final
// timestamp will include this group's still-unassigned local timestamp,
// which will exceed the current clock, and the clock is never behind any
// delivered final timestamp.
func (e *Engine) drain() {
	for {
		ids := make([]amcast.MsgID, 0, len(e.pend))
		for id, p := range e.pend {
			if p.hasTS {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return
		}
		sort.Slice(ids, func(i, j int) bool {
			pi, pj := e.pend[ids[i]], e.pend[ids[j]]
			if pi.candTS() != pj.candTS() {
				return pi.candTS() < pj.candTS()
			}
			return ids[i] < ids[j]
		})
		head := e.pend[ids[0]]
		if !head.hasFinal {
			return
		}
		e.deliver(ids[0], head)
	}
}

func (e *Engine) deliver(id amcast.MsgID, p *pend) {
	delete(e.pend, id)
	e.delivered.Add(id)
	e.deliveries = append(e.deliveries, amcast.Delivery{Group: e.g, Seq: e.seq, Msg: p.msg})
	e.seq++
}
