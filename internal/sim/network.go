package sim

import (
	"fmt"

	"flexcast/amcast"
)

// Handler consumes envelopes addressed to one node.
type Handler interface {
	HandleEnvelope(env amcast.Envelope)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(env amcast.Envelope)

// HandleEnvelope implements Handler.
func (f HandlerFunc) HandleEnvelope(env amcast.Envelope) { f(env) }

// LatencyFunc returns the one-way latency in microseconds between two
// nodes.
type LatencyFunc func(from, to amcast.NodeID) Time

// ProcCostFunc returns the serial processing cost a node pays to handle an
// envelope. Return 0 for an infinitely fast node.
type ProcCostFunc func(node amcast.NodeID, env amcast.Envelope) Time

// SendHook observes every transmission; internal/chaos uses it to feed
// the trace checkers and the per-group traffic counters behind Figures
// 1, 8 and 9.
type SendHook func(from, to amcast.NodeID, env amcast.Envelope)

// LinkFault is the perturbation a FaultFunc applies to one transmission.
//
// The model deliberately has no "lose forever" knob: the protocols assume
// reliable FIFO channels (TCP in the paper's prototypes), under which a
// lost packet manifests as a retransmission delay, not as loss. A fault
// injector therefore expresses message drop, reordering pressure and
// transient partitions uniformly as extra delay — the per-link FIFO clamp
// then models head-of-line blocking, exactly as TCP would.
type LinkFault struct {
	// Delay is extra one-way latency added to this transmission:
	// retransmission backoff for a simulated drop, random jitter, or
	// "until the partition heals".
	Delay Time
	// Duplicates is the number of extra copies of the envelope delivered
	// after the original (simulating at-least-once retransmission).
	// Receivers must be idempotent — every engine in this repository is.
	Duplicates int
}

// FaultFunc inspects one transmission and returns its perturbation.
// Called once per Send, in deterministic simulator order, so a seeded
// implementation yields reproducible runs (internal/chaos).
type FaultFunc func(from, to amcast.NodeID, env amcast.Envelope) LinkFault

type linkKey struct{ from, to amcast.NodeID }

// parkedEnv is an envelope that arrived at a crashed node and waits for
// its restart.
type parkedEnv struct {
	from amcast.NodeID
	env  amcast.Envelope
}

// Network connects handlers through simulated point-to-point links.
//
// Links are reliable and FIFO by default (the paper's model assumes FIFO
// reliable channels): if jitter would reorder two envelopes on the same
// link, the later send is delayed to preserve order. Tests that explicitly
// exercise non-FIFO behaviour can disable the clamp.
type Network struct {
	sim      *Simulator
	latency  LatencyFunc
	procCost ProcCostFunc
	jitter   func(from, to amcast.NodeID) Time
	noFIFO   bool

	handlers    map[amcast.NodeID]Handler
	lastArrival map[linkKey]Time
	busyUntil   map[amcast.NodeID]Time
	onSend      SendHook
	faults      FaultFunc
	down        map[amcast.NodeID]bool
	parked      map[amcast.NodeID][]parkedEnv
}

// NetworkOption configures a Network.
type NetworkOption func(*Network)

// WithProcCost installs a per-envelope processing-cost model.
func WithProcCost(f ProcCostFunc) NetworkOption {
	return func(n *Network) { n.procCost = f }
}

// WithJitter adds per-transmission extra latency (may vary per call; use a
// seeded source for determinism).
func WithJitter(f func(from, to amcast.NodeID) Time) NetworkOption {
	return func(n *Network) { n.jitter = f }
}

// WithoutFIFO disables the per-link FIFO clamp; only tests use this.
func WithoutFIFO() NetworkOption {
	return func(n *Network) { n.noFIFO = true }
}

// WithSendHook observes every send (before latency is applied).
func WithSendHook(h SendHook) NetworkOption {
	return func(n *Network) { n.onSend = h }
}

// WithFaults installs a fault injector consulted on every transmission
// (internal/chaos builds seeded ones).
func WithFaults(f FaultFunc) NetworkOption {
	return func(n *Network) { n.faults = f }
}

// NewNetwork builds a network over the simulator with the given one-way
// latency model.
func NewNetwork(s *Simulator, latency LatencyFunc, opts ...NetworkOption) *Network {
	n := &Network{
		sim:         s,
		latency:     latency,
		handlers:    make(map[amcast.NodeID]Handler),
		lastArrival: make(map[linkKey]Time),
		busyUntil:   make(map[amcast.NodeID]Time),
		down:        make(map[amcast.NodeID]bool),
		parked:      make(map[amcast.NodeID][]parkedEnv),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Register attaches a handler to a node id. Registering the same id twice
// panics: it is always a deployment bug.
func (n *Network) Register(id amcast.NodeID, h Handler) {
	if _, dup := n.handlers[id]; dup {
		panic(fmt.Sprintf("sim: node %s registered twice", id))
	}
	n.handlers[id] = h
}

// dupSpacing separates duplicate copies from the original arrival.
const dupSpacing Time = 3

// Send transmits an envelope. Delivery happens after the link's one-way
// latency (plus jitter and any injected fault delay), in FIFO order per
// link, and after the destination node has finished processing all
// earlier envelopes (serial processing model).
func (n *Network) Send(from, to amcast.NodeID, env amcast.Envelope) {
	if n.onSend != nil {
		n.onSend(from, to, env)
	}
	lat := n.latency(from, to)
	if n.jitter != nil {
		lat += n.jitter(from, to)
	}
	var fault LinkFault
	if n.faults != nil {
		fault = n.faults(from, to, env)
		if fault.Delay > 0 {
			lat += fault.Delay
		}
	}
	arrival := n.sim.Now() + lat
	if !n.noFIFO {
		key := linkKey{from, to}
		if last := n.lastArrival[key]; arrival < last {
			arrival = last
		}
		n.lastArrival[key] = arrival
	}
	n.sim.ScheduleAt(arrival, func() { n.arrive(from, to, env) })
	// Duplicate copies trail the original; they bypass the FIFO clamp (a
	// retransmitted duplicate of an old message arrives out of band) and
	// exercise receiver idempotency.
	for i := 1; i <= fault.Duplicates; i++ {
		at := arrival + Time(i)*dupSpacing
		n.sim.ScheduleAt(at, func() { n.arrive(from, to, env) })
	}
}

func (n *Network) arrive(from, to amcast.NodeID, env amcast.Envelope) {
	if _, ok := n.handlers[to]; !ok {
		panic(fmt.Sprintf("sim: envelope %s for unregistered node %s", env.Kind, to))
	}
	var cost Time
	if n.procCost != nil {
		cost = n.procCost(to, env)
	}
	if cost <= 0 {
		n.handoff(from, to, env)
		return
	}
	start := n.sim.Now()
	if busy := n.busyUntil[to]; busy > start {
		start = busy
	}
	finish := start + cost
	n.busyUntil[to] = finish
	n.sim.ScheduleAt(finish, func() { n.handoff(from, to, env) })
}

// handoff hands an envelope to its destination handler, or parks it when
// the destination is crashed.
func (n *Network) handoff(from, to amcast.NodeID, env amcast.Envelope) {
	if n.down[to] {
		n.parked[to] = append(n.parked[to], parkedEnv{from: from, env: env})
		return
	}
	n.handlers[to].HandleEnvelope(env)
}

// CrashNode takes a node offline: envelopes that arrive while it is down
// are parked in arrival order instead of being handed to its handler —
// the reliable-channel model (TCP retransmits across a peer restart), so
// a crash delays traffic but loses none. The runtime that owns the node
// is responsible for restoring the node's protocol state (for example via
// amcast.SnapshotEngine) before calling RestartNode.
func (n *Network) CrashNode(id amcast.NodeID) { n.down[id] = true }

// Crashed reports whether a node is currently down.
func (n *Network) Crashed(id amcast.NodeID) bool { return n.down[id] }

// Parked reports how many envelopes are parked for a crashed node.
func (n *Network) Parked(id amcast.NodeID) int { return len(n.parked[id]) }

// RestartNode brings a crashed node back: parked envelopes are handed to
// its handler immediately, in arrival order (per-link FIFO is preserved —
// arrival order respects the per-link clamp).
func (n *Network) RestartNode(id amcast.NodeID) {
	delete(n.down, id)
	q := n.parked[id]
	delete(n.parked, id)
	for _, p := range q {
		n.handoff(p.from, id, p.env)
	}
}
