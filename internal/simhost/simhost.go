// Package simhost is the one simulated host: it runs every group as a
// stepped production runtime.Node, carries what a group sends onto a
// sim.Network or into a table of links, records the run for the trace
// checkers, keeps a step log when asked, and crashes and recovers a
// group through the durable backend, auditing every recovery. A
// schedule source decides what happens next: internal/chaos's fault
// plans and timed runs, and internal/prototest's protocol test sources.
package simhost

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"flexcast/amcast"
	"flexcast/internal/durable"
	"flexcast/internal/runtime"
	"flexcast/internal/sim"
	"flexcast/internal/trace"
)

// Config describes the hosted groups and what the host reports.
type Config struct {
	Groups []amcast.GroupID
	// NewEngine builds group g's engine, at New and for each recovery.
	NewEngine func(g amcast.GroupID) (amcast.Engine, error)
	// MaxBatch, when set, gives group g's runtime.Config.MaxBatch; New
	// asks once per group, in Groups order.
	MaxBatch func(g amcast.GroupID) int
	// Manual leaves stepping to the source (Step); otherwise a group
	// steps as soon as it is handed an envelope.
	Manual bool
	// Replies transmits replies to clients; otherwise they are dropped.
	Replies bool
	// Rec, when set, records every delivery and every send to a group.
	Rec *trace.Recorder
	// Keep keeps every step in the step log (Log).
	Keep bool
	// OnStep, when set, sees each step: the chunk the node took (lent
	// for the call) and what it delivered, before the deliveries are
	// recorded (it may reorder them).
	OnStep func(g amcast.GroupID, chunk []amcast.Envelope, dels []amcast.Delivery)
	// Fail reports what went wrong inside a step or a handoff (required).
	Fail func(err error)
	// SnapshotEvery and Decode are a persisted group's durable.Options.
	// Its WAL is never fsynced: the fault model is a process crash,
	// whose image is the page cache.
	SnapshotEvery int
	Decode        func([]byte) (amcast.Snapshot, error)
}

// Host runs the groups of one simulated run.
type Host struct {
	Config
	// Engines holds the protocol engine each group runs now (never its
	// durable backend): a recovery replaces it.
	Engines    map[amcast.GroupID]amcast.Engine
	Links      Links // the envelopes in flight when no network is attached
	Backlogged int   // steps that popped a queue longer than a MaxBatch above 1

	net    *sim.Network
	groups map[amcast.GroupID]*group
	buf    []amcast.Envelope
	one    [1]amcast.Envelope
	outs   []amcast.Output // the step in progress's sends (Keep only)
	dels   []amcast.Delivery
}

// group is one hosted group: its node over the engine (over the durable
// backend once persisted), its step log and, while down, its image.
type group struct {
	id       amcast.GroupID
	node     *runtime.Node
	maxBatch int
	steps    []Step
	de       *durable.Engine
	img      *durable.Image
}

// Step is one node step: the chunk it took, what it sent to groups (in
// send order, which at MaxBatch 1 is the engine's output order) and
// what it delivered.
type Step struct {
	In   []amcast.Envelope
	Outs []amcast.Output
	Dels []amcast.Delivery
}

// Link is one directed channel; Links holds each one's envelopes in
// flight, oldest first.
type Link struct{ From, To amcast.NodeID }
type Links map[Link][]amcast.Envelope

// Busy returns the links with envelopes in flight, in (from, to) order.
func (ls Links) Busy() []Link {
	var out []Link
	for l, q := range ls {
		if len(q) > 0 {
			out = append(out, l)
		}
	}
	slices.SortFunc(out, func(a, b Link) int { return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To)) })
	return out
}

// Latencies is the seeded link model: each directed link's fixed
// latency is drawn on its first send, as lo + draw(hi-lo) µs.
func Latencies(draw func(n int64) int64, lo, hi sim.Time) sim.LatencyFunc {
	lat := make(map[Link]sim.Time)
	return func(from, to amcast.NodeID) sim.Time {
		l, ok := lat[Link{from, to}]
		if !ok {
			l = lo + sim.Time(draw(int64(hi-lo)))
			lat[Link{from, to}] = l
		}
		return l
	}
}

// New builds one engine and one stepped node per group.
func New(cfg Config) (*Host, error) {
	h := &Host{Config: cfg, Engines: make(map[amcast.GroupID]amcast.Engine, len(cfg.Groups)), Links: make(Links),
		groups: make(map[amcast.GroupID]*group, len(cfg.Groups))}
	for _, g := range cfg.Groups {
		eng, err := cfg.NewEngine(g)
		if err != nil {
			return nil, fmt.Errorf("simhost: build engine for group %d: %w", g, err)
		}
		h.Engines[g], h.groups[g] = eng, &group{id: g}
		if cfg.MaxBatch != nil {
			h.groups[g].maxBatch = cfg.MaxBatch(g)
		}
		h.host(h.groups[g])
	}
	return h, nil
}

// host builds group gr's node over its current engine. Its queue and
// batcher are empty between steps: nothing carries over.
func (h *Host) host(gr *group) {
	eng := h.Engines[gr.id]
	if gr.de != nil {
		eng = gr.de
	}
	from := amcast.GroupNode(gr.id)
	gr.node = runtime.NewStepped(eng, func(to amcast.NodeID, envs []amcast.Envelope) {
		if to.IsClient() && !h.Replies {
			return
		}
		for _, env := range envs {
			h.Transmit(from, to, env)
			if h.Keep {
				h.outs = append(h.outs, amcast.Output{To: to, Env: env})
			}
		}
	}, runtime.Config{
		MaxBatch: gr.maxBatch,
		// One goroutine steps every node: Submit must never wait.
		QueueDepth: math.MaxInt,
		OnDeliver:  func(d amcast.Delivery) { h.dels = append(h.dels, d) },
	})
}

// Attach carries every transmission on net and registers each group.
func (h *Host) Attach(net *sim.Network) {
	h.net = net
	for _, g := range h.Groups {
		net.Register(amcast.GroupNode(g), sim.HandlerFunc(func(env amcast.Envelope) { h.Hand(g, env) }))
	}
}

// Log and QueueLen return group g's step log (Keep) and its queue's
// length.
func (h *Host) Log(g amcast.GroupID) []Step   { return h.groups[g].steps }
func (h *Host) QueueLen(g amcast.GroupID) int { return h.groups[g].node.QueueLen() }

// Transmit puts a send in flight, recording it when it is to a group:
// no checker reads a reply to a client.
func (h *Host) Transmit(from, to amcast.NodeID, env amcast.Envelope) {
	if h.Rec != nil && !to.IsClient() {
		h.Rec.OnSend(from, to, env)
	}
	if h.net != nil {
		h.net.Send(from, to, env)
	} else {
		h.Links[Link{from, to}] = append(h.Links[Link{from, to}], env)
	}
}

// Move hands the oldest envelope in flight on l to its destination.
func (h *Host) Move(l Link) {
	q := h.Links[l]
	h.Links[l] = q[1:]
	h.Hand(l.To.Group(), q[0])
}

// Hand queues env at group g's node: the one way an envelope reaches a
// hosted group. A source parks a crashed group's traffic.
func (h *Host) Hand(g amcast.GroupID, env amcast.Envelope) {
	gr := h.groups[g]
	if gr.img != nil {
		h.Fail(fmt.Errorf("simhost: envelope handed to crashed group %d", g))
		return
	}
	h.one[0] = env
	gr.node.Submit(h.one[:])
	if !h.Manual {
		h.Step(g)
	}
}

// Step runs one chunk of group g's queue, logs it (Keep), shows it to
// OnStep and records its deliveries.
func (h *Host) Step(g amcast.GroupID) {
	gr := h.groups[g]
	if gr.maxBatch > 1 && gr.node.QueueLen() > gr.maxBatch {
		h.Backlogged++
	}
	if h.dels = h.dels[:0]; h.Keep {
		h.outs, h.dels = nil, nil // the log keeps this step's slices
	}
	h.buf = gr.node.Step(h.buf)
	if gr.de != nil && gr.de.Err() != nil {
		h.Fail(fmt.Errorf("simhost: durable backend of group %d: %w", g, gr.de.Err()))
	}
	if h.Keep {
		gr.steps = append(gr.steps, Step{In: slices.Clone(h.buf), Outs: h.outs, Dels: h.dels})
	}
	if h.OnStep != nil {
		h.OnStep(g, h.buf, h.dels)
	}
	for _, d := range h.dels {
		if h.Rec != nil {
			if err := h.Rec.OnDeliver(d); err != nil {
				h.Fail(err)
			}
		}
	}
}

// Persist puts group g behind the durable backend in dir: its inputs are
// logged there, with checkpoints on the SnapshotEvery cadence.
func (h *Host) Persist(g amcast.GroupID, dir string) (err error) {
	gr := h.groups[g]
	if gr.de, err = durable.Wrap(h.Engines[g].(amcast.SnapshotEngine), h.options(dir)); err == nil {
		h.host(gr)
	}
	return err
}

// options are a persisted group's durable.Options in dir.
func (h *Host) options(dir string) durable.Options {
	return durable.Options{Dir: dir, SnapshotEvery: h.SnapshotEvery, FsyncEvery: -1, Decode: h.Decode}
}

// Crash takes persisted group g down (durable.Crash) and returns its
// image, with any error.
func (h *Host) Crash(g amcast.GroupID, torn bool) (img *durable.Image, err error) {
	gr := h.groups[g]
	if gr.de == nil || gr.img != nil {
		return nil, fmt.Errorf("simhost: crash of group %d, which is down or does not persist", g)
	}
	gr.img, err = durable.Crash(gr.de, torn)
	return gr.img, err
}

// Recover brings crashed group g back on a completely fresh engine
// recovered from its image, with durable.Recover's audits (the replay's
// outputs were already transmitted and are suppressed), and returns that
// engine. A recovery that fails an audit leaves the group down: neither
// the rejected engine nor the crashed one is stepped again.
func (h *Host) Recover(g amcast.GroupID) (amcast.Engine, error) {
	gr := h.groups[g]
	if gr.img == nil {
		return nil, fmt.Errorf("simhost: recover of live group %d", g)
	}
	eng, err := h.NewEngine(g)
	if err != nil {
		return nil, err
	}
	if gr.de, err = durable.Recover(eng.(amcast.SnapshotEngine), gr.img, h.options(gr.img.Dir)); err != nil {
		return nil, err
	}
	h.Engines[g], gr.img = eng, nil
	h.host(gr)
	return eng, nil
}

// Close closes the durable backend of every persisted group that is up.
func (h *Host) Close() (err error) {
	for _, g := range h.Groups {
		if gr := h.groups[g]; gr.de != nil && gr.img == nil {
			if cerr := gr.de.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("simhost: durable backend of group %d: %w", g, cerr))
			}
		}
	}
	return err
}
