// Package harness assembles full experiment deployments: one protocol
// engine per group on the simulated 12-region WAN, closed-loop gTPC-C
// clients, optional flush-based garbage collection, metrics, and latency
// recording. Every table and figure of the paper's evaluation is a
// harness configuration: the paper-* experiments of experiments.json,
// run by internal/grid's sim cells.
package harness

import (
	"fmt"
	"math/rand"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/codec"
	"flexcast/internal/deploy"
	"flexcast/internal/gtpcc"
	"flexcast/internal/metrics"
	"flexcast/internal/overlay"
	"flexcast/internal/sim"
	"flexcast/internal/stats"
	"flexcast/internal/trace"
	"flexcast/internal/wan"
)

// Protocol selects which of the three evaluated protocols a deployment
// runs.
type Protocol = deploy.Protocol

const (
	// FlexCast is the paper's contribution: genuine, C-DAG overlay.
	FlexCast = deploy.FlexCast
	// Distributed is Skeen's protocol: genuine, fully connected.
	Distributed = deploy.Skeen
	// Hierarchical is the ByzCast-style tree protocol: non-genuine.
	Hierarchical = deploy.Hierarchical
)

// Config is one experiment configuration.
type Config struct {
	// Protocol selects the multicast protocol.
	Protocol Protocol
	// Overlay is FlexCast's C-DAG (default wan.O1()).
	Overlay *overlay.CDAG
	// Tree is the hierarchical protocol's overlay (default wan.T1()).
	Tree *overlay.Tree
	// Locality is the gTPC-C locality rate (default 0.95).
	Locality float64
	// NumClients is the total number of clients, spread round-robin over
	// the 12 regions (default 240, the paper's latency configuration).
	NumClients int
	// GlobalOnly restricts the workload to multi-warehouse transactions
	// (the paper's latency experiments). The throughput experiment uses
	// the full mix.
	GlobalOnly bool
	// Duration is the virtual run length in microseconds (default 60 s,
	// the paper's run length).
	Duration sim.Time
	// TrimFrac is the warm-up/cool-down fraction discarded from both ends
	// of the run (default 0.1, as in the paper).
	TrimFrac float64
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// ProcCostBase is the per-envelope serial processing cost at group
	// nodes in microseconds; 0 models infinitely fast servers (latency
	// experiments). The throughput experiment sets it to model saturation.
	ProcCostBase sim.Time
	// ProcCostPerKB adds processing cost proportional to envelope size,
	// in microseconds per KiB; FlexCast's larger history-carrying messages
	// then cost more, as observed in the paper.
	ProcCostPerKB float64
	// FlushEvery enables the flush/garbage-collection client with the
	// given virtual period (paper §4.3); 0 disables it.
	FlushEvery sim.Time
	// Record enables trace recording; RunChecked then verifies the atomic
	// multicast properties after draining the run.
	Record bool
}

func (c *Config) fill() {
	if c.Locality == 0 {
		c.Locality = 0.95
	}
	if c.NumClients == 0 {
		c.NumClients = 240
	}
	if c.Duration == 0 {
		c.Duration = 60_000_000
	}
	if c.TrimFrac == 0 {
		c.TrimFrac = 0.1
	}
}

// Result carries everything the paper's tables and figures report.
type Result struct {
	Cfg Config
	// PerDest[k] records the latency (µs) of the (k+1)-th destination
	// reply for global messages issued inside the measurement window.
	PerDest []*stats.Recorder
	// Completed counts transactions completed in the measurement window.
	Completed int
	// WindowSecs is the measurement window length in seconds.
	WindowSecs float64
	// Metrics holds per-node traffic counters for the whole run.
	Metrics *metrics.Registry
	// Trace is non-nil when Config.Record was set.
	Trace *trace.Recorder
	// Events is the number of simulator events executed.
	Events uint64
	// FinalHistoryLen maps each group to its engine's live history size
	// at the end of the run (FlexCast only; zero for other protocols).
	// It quantifies the effect of flush-based garbage collection.
	FinalHistoryLen map[amcast.GroupID]int
	// genuine records whether the Minimality audit applies to the run.
	genuine bool
}

// Throughput returns completed transactions per second in the
// measurement window.
func (r *Result) Throughput() float64 {
	if r.WindowSecs == 0 {
		return 0
	}
	return float64(r.Completed) / r.WindowSecs
}

// Overhead returns the per-group communication overhead (fractions).
func (r *Result) Overhead() map[amcast.GroupID]float64 {
	out := make(map[amcast.GroupID]float64, wan.NumRegions)
	for _, g := range wan.Groups() {
		c := r.Metrics.Node(amcast.GroupNode(g))
		out[g] = c.Overhead()
	}
	return out
}

// deployment wires one full experiment.
type deployment struct {
	cfg     Config
	dep     *deploy.Deployment
	sim     *sim.Simulator
	net     *sim.Network
	reg     *metrics.Registry
	rec     *trace.Recorder
	clients []*client.Client
	engines map[amcast.GroupID]amcast.Engine
	homes   map[amcast.NodeID]amcast.GroupID
	res     *Result
	flush   *client.Client
	checkEr error
}

// Run executes the experiment and returns its results.
func Run(cfg Config) (*Result, error) {
	d, err := build(cfg)
	if err != nil {
		return nil, err
	}
	d.sim.RunUntil(cfg.Duration)
	if cfg.Record {
		// Quiesce: stop the clients and drain in-flight traffic so the
		// agreement check is meaningful.
		for _, c := range d.clients {
			c.Stop()
		}
		if d.flush != nil {
			d.flush.Stop()
		}
		d.sim.Run()
	}
	if d.checkEr != nil {
		return nil, d.checkEr
	}
	d.res.Events = d.sim.Steps()
	d.res.FinalHistoryLen = make(map[amcast.GroupID]int, len(d.engines))
	for g, eng := range d.engines {
		if h, ok := eng.(interface{ HistoryLen() int }); ok {
			d.res.FinalHistoryLen[g] = h.HistoryLen()
		}
	}
	return d.res, nil
}

// RunChecked runs with trace recording and verifies the atomic multicast
// properties (Minimality only for the genuine protocols).
func RunChecked(cfg Config) (*Result, error) {
	cfg.Record = true
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	if err := res.Trace.CheckAll(res.genuine); err != nil {
		return res, fmt.Errorf("harness: %s run violates spec: %w", cfg.Protocol, err)
	}
	return res, nil
}

// assemble resolves a protocol on the 12-region WAN: on the given
// overlay or tree, else on the paper's O1 / T1.
func assemble(p Protocol, ov *overlay.CDAG, tree *overlay.Tree) (*deploy.Deployment, error) {
	return deploy.New(deploy.Spec{Protocol: p, Overlay: ov, Tree: tree, Groups: wan.NumRegions})
}

func build(cfg Config) (*deployment, error) {
	cfg.fill()
	dep, err := assemble(cfg.Protocol, cfg.Overlay, cfg.Tree)
	if err != nil {
		return nil, err
	}
	d := &deployment{
		cfg:     cfg,
		dep:     dep,
		sim:     sim.New(),
		reg:     metrics.NewRegistry(),
		engines: make(map[amcast.GroupID]amcast.Engine),
		homes:   make(map[amcast.NodeID]amcast.GroupID),
		res:     &Result{Cfg: cfg, genuine: dep.Genuine},
	}
	d.res.Metrics = d.reg
	for i := 0; i < 3; i++ {
		d.res.PerDest = append(d.res.PerDest, &stats.Recorder{})
	}
	if cfg.Record {
		d.rec = trace.NewRecorder()
		d.res.Trace = d.rec
	}

	opts := []sim.NetworkOption{sim.WithSendHook(func(from, to amcast.NodeID, env amcast.Envelope) {
		d.reg.OnSend(from, to, env)
		if d.rec != nil {
			if env.Kind == amcast.KindRequest {
				d.rec.OnMulticast(env.Msg)
			}
			d.rec.OnSend(from, to, env)
		}
	})}
	if cfg.ProcCostBase > 0 || cfg.ProcCostPerKB > 0 {
		base, perKB := cfg.ProcCostBase, cfg.ProcCostPerKB
		opts = append(opts, sim.WithProcCost(func(n amcast.NodeID, env amcast.Envelope) sim.Time {
			if n.IsClient() {
				return 0
			}
			return base + sim.Time(perKB*float64(codec.Size(env))/1024)
		}))
	}
	d.net = sim.NewNetwork(d.sim, d.latency, opts...)

	if err := d.buildGroups(); err != nil {
		return nil, err
	}
	if err := d.buildClients(); err != nil {
		return nil, err
	}
	return d, nil
}

// latency is the one-way delay model: inter-region for group-group pairs,
// the client's home region against the group's region for client traffic.
func (d *deployment) latency(from, to amcast.NodeID) sim.Time {
	return wan.OneWayMicros(d.region(from), d.region(to))
}

func (d *deployment) region(n amcast.NodeID) amcast.GroupID {
	if n.IsClient() {
		return d.homes[n]
	}
	return n.Group()
}

// engineNode adapts an amcast.Engine to the simulated network: outputs
// are transmitted, deliveries are recorded and acknowledged to clients.
type engineNode struct {
	d   *deployment
	id  amcast.NodeID
	eng amcast.Engine
}

func (n *engineNode) HandleEnvelope(env amcast.Envelope) {
	outs := n.eng.OnEnvelope(env)
	for _, o := range outs {
		n.d.net.Send(n.id, o.To, o.Env)
	}
	for _, del := range n.eng.TakeDeliveries() {
		n.d.reg.OnDeliver(del.Group)
		if n.d.rec != nil {
			if err := n.d.rec.OnDeliver(del); err != nil && n.d.checkEr == nil {
				n.d.checkEr = err
			}
		}
		if del.Msg.Sender.IsClient() {
			n.d.net.Send(n.id, del.Msg.Sender, amcast.ReplyFor(n.id, del))
		}
	}
}

func (d *deployment) buildGroups() error {
	for _, g := range wan.Groups() {
		eng, err := d.dep.NewEngine(g)
		if err != nil {
			return err
		}
		id := amcast.GroupNode(g)
		d.engines[g] = eng
		d.net.Register(id, &engineNode{d: d, id: id, eng: eng})
	}
	return nil
}

func (d *deployment) buildClients() error {
	cfg := d.cfg
	lo := sim.Time(float64(cfg.Duration) * cfg.TrimFrac)
	hi := cfg.Duration - lo
	d.res.WindowSecs = float64(hi-lo) / 1e6

	groups := wan.Groups()
	for i := 0; i < cfg.NumClients; i++ {
		home := groups[i%len(groups)]
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		gen, err := gtpcc.New(gtpcc.Config{
			Home:       home,
			Nearest:    wan.NearestOrder(home),
			Locality:   cfg.Locality,
			GlobalOnly: cfg.GlobalOnly,
		}, rng)
		if err != nil {
			return err
		}
		src := client.TxSourceFunc(func() client.Tx {
			tx := gen.Next()
			return client.Tx{Dst: tx.Dst, Payload: make([]byte, tx.PayloadSize)}
		})
		cl, err := client.New(client.Config{
			Index:      i,
			Route:      d.dep.Route,
			Source:     src,
			OnComplete: d.onComplete(lo, hi),
		}, d.sim, d.net)
		if err != nil {
			return err
		}
		d.homes[cl.ID()] = home
		d.clients = append(d.clients, cl)
		// Stagger starts a few hundred microseconds apart so the first
		// round does not arrive as a single synchronized burst.
		cl.Start(sim.Time(i%len(groups)) * 137)
	}

	if cfg.FlushEvery > 0 {
		// The distinguished flush process (paper §4.3) multicasts a flush
		// message to every group on a fixed period.
		idx := cfg.NumClients
		home := groups[0]
		fl, err := client.New(client.Config{
			Index: idx,
			Route: d.dep.Route,
			Source: client.TxSourceFunc(func() client.Tx {
				return client.Tx{Dst: wan.Groups(), Flags: amcast.FlagFlush}
			}),
			ThinkTime: cfg.FlushEvery,
		}, d.sim, d.net)
		if err != nil {
			return err
		}
		d.homes[fl.ID()] = home
		d.flush = fl
		fl.Start(cfg.FlushEvery)
	}

	return nil
}

func (d *deployment) onComplete(lo, hi sim.Time) func(c client.Completion) {
	return func(c client.Completion) {
		if c.Msg.Flags&amcast.FlagFlush != 0 {
			return
		}
		if c.Issued < lo || c.Issued > hi {
			return
		}
		d.res.Completed++
		if !c.Msg.IsGlobal() {
			return
		}
		for k, rep := range c.Replies {
			if k >= len(d.res.PerDest) {
				break
			}
			d.res.PerDest[k].Add(float64(rep.At - c.Issued))
		}
	}
}
