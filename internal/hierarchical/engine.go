// Package hierarchical implements the tree-overlay atomic multicast used
// as the paper's non-genuine baseline (§3, §5.1) — ByzCast's ordering
// scheme with single-process groups, without the Byzantine machinery.
//
// Protocol: a multicast message m enters the tree at the lowest common
// ancestor of m.dst and flows down: each group orders incoming messages in
// arrival order (its local total order), delivers m if it is a
// destination, and forwards m to every child whose subtree contains a
// destination. FIFO links make lower groups preserve the order induced by
// higher groups. Groups relay messages they are not addressed by — the
// communication overhead quantified in the paper's Figures 1 and 9.
package hierarchical

import (
	"fmt"

	"flexcast/amcast"
	"flexcast/internal/overlay"
)

// Config configures one hierarchical engine.
type Config struct {
	// Group is the group this engine serves.
	Group amcast.GroupID
	// Tree is the shared overlay tree.
	Tree *overlay.Tree
}

// Engine is the hierarchical state machine for one group. It implements
// amcast.Engine. Not safe for concurrent use.
type Engine struct {
	g    amcast.GroupID
	tree *overlay.Tree

	seen       amcast.IDSet
	deliveries []amcast.Delivery
	seq        uint64
	relayed    uint64
}

var _ amcast.Engine = (*Engine)(nil)

var _ amcast.BatchStepper = (*Engine)(nil)

// New builds a hierarchical engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Tree == nil {
		return nil, fmt.Errorf("hierarchical: nil tree")
	}
	if !cfg.Tree.Contains(cfg.Group) {
		return nil, fmt.Errorf("hierarchical: group %d not in tree", cfg.Group)
	}
	return &Engine{g: cfg.Group, tree: cfg.Tree}, nil
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

// Relayed reports how many messages this group forwarded without being a
// destination — its absolute communication overhead (tests).
func (e *Engine) Relayed() uint64 { return e.relayed }

// OnEnvelope implements amcast.Engine.
func (e *Engine) OnEnvelope(env amcast.Envelope) []amcast.Output {
	var outs []amcast.Output
	e.step(env, &outs)
	return outs
}

// BatchStep implements amcast.BatchStepper: the batch is processed
// envelope by envelope with the output slice shared across the batch.
func (e *Engine) BatchStep(envs []amcast.Envelope) []amcast.Output {
	var outs []amcast.Output
	for _, env := range envs {
		e.step(env, &outs)
	}
	return outs
}

func (e *Engine) step(env amcast.Envelope, outs *[]amcast.Output) {
	switch env.Kind {
	case amcast.KindRequest:
		// Clients must address the lowest common ancestor of the
		// destination set; misrouted requests are dropped.
		if e.tree.Lca(env.Msg.Dst) != e.g {
			return
		}
		e.handle(env.Msg, outs)
	case amcast.KindFwd:
		e.handle(env.Msg, outs)
	}
}

func (e *Engine) handle(m amcast.Message, outs *[]amcast.Output) {
	if !e.seen.Add(m.ID) {
		return
	}
	if m.HasDst(e.g) {
		e.deliveries = append(e.deliveries, amcast.Delivery{Group: e.g, Seq: e.seq, Msg: m})
		e.seq++
	} else {
		e.relayed++
	}
	for _, c := range e.tree.Children(e.g) {
		if !e.tree.SubtreeHasAny(c, m.Dst) {
			continue
		}
		*outs = append(*outs, amcast.Output{
			To:  amcast.GroupNode(c),
			Env: amcast.Envelope{Kind: amcast.KindFwd, From: amcast.GroupNode(e.g), Msg: m},
		})
	}
}
