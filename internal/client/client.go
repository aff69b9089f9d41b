// Package client is the one implementation of the client half of the
// protocol. Calls (calls.go) is the table every client in the repository
// issues requests and collects replies through — the root package's
// clusters, loadgen, the chaos explorer, cmd/flexclient — and knows no
// clock, transport or lock. Client (this file) is the closed-loop client
// of the paper's evaluation (§5.3) on the simulator: one transaction at a
// time to the protocol's entry node(s), a reply from every destination
// group, per-destination latencies, then the next transaction.
package client

import (
	"fmt"
	"sort"

	"flexcast/amcast"
	"flexcast/internal/sim"
)

// Tx is one transaction to issue.
type Tx struct {
	Dst     []amcast.GroupID
	Payload []byte
	Flags   amcast.MsgFlags
}

// TxSource produces the client's transactions.
type TxSource interface {
	Next() Tx
}

// TxSourceFunc adapts a function to TxSource.
type TxSourceFunc func() Tx

// Next implements TxSource.
func (f TxSourceFunc) Next() Tx { return f() }

// Reply records one destination's response.
type Reply struct {
	Group amcast.GroupID
	At    sim.Time
}

// Completion summarizes one finished transaction.
type Completion struct {
	Msg    amcast.Message
	Issued sim.Time
	// Replies are sorted by arrival time: Replies[0] is the first
	// destination to respond (the paper's "1st destination").
	Replies []Reply
}

// Config configures one client.
type Config struct {
	// Index is the client number; it determines the NodeID and message ids.
	Index int
	// Route maps messages to entry nodes.
	Route RouteFunc
	// Source generates transactions.
	Source TxSource
	// ThinkTime is the delay between a completion and the next issue.
	ThinkTime sim.Time
	// OnComplete observes every completed transaction; may be nil.
	OnComplete func(c Completion)
}

// Client is a closed-loop client attached to a simulated network.
type Client struct {
	cfg   Config
	calls *Calls[openTx]
	s     *sim.Simulator
	net   *sim.Network
	seq   uint64
	stop  bool

	issued    uint64
	completed uint64
}

// openTx is the client's per-call data: when the transaction was issued
// and when each destination first replied.
type openTx struct {
	issued  sim.Time
	replies []Reply
}

// New builds a client and registers it on the network.
func New(cfg Config, s *sim.Simulator, net *sim.Network) (*Client, error) {
	if cfg.Route == nil || cfg.Source == nil {
		return nil, fmt.Errorf("client: missing route or source")
	}
	c := &Client{cfg: cfg, calls: NewCalls[openTx](cfg.Index, cfg.Route), s: s, net: net}
	net.Register(c.ID(), c)
	return c, nil
}

// ID returns the client's node id.
func (c *Client) ID() amcast.NodeID { return c.calls.ID() }

// Issued and Completed report lifetime transaction counts.
func (c *Client) Issued() uint64 { return c.issued }

// Completed reports the number of finished transactions.
func (c *Client) Completed() uint64 { return c.completed }

// Start schedules the client's first transaction after the given delay.
func (c *Client) Start(delay sim.Time) {
	c.s.Schedule(delay, c.issue)
}

// Stop prevents further transactions; the in-flight one still completes.
func (c *Client) Stop() { c.stop = true }

func (c *Client) issue() {
	if c.stop || c.calls.Len() > 0 {
		return
	}
	tx := c.cfg.Source.Next()
	c.seq++
	m := c.calls.Message(c.seq, append([]amcast.GroupID(nil), tx.Dst...), tx.Flags, tx.Payload)
	c.calls.Issue(m, openTx{issued: c.s.Now()})
	c.issued++
	c.calls.Requests(m, func(to amcast.NodeID, env amcast.Envelope) { c.net.Send(c.ID(), to, env) })
}

// HandleEnvelope implements sim.Handler: it timestamps each destination's
// first reply and closes the loop on the last one.
func (c *Client) HandleEnvelope(env amcast.Envelope) {
	call, progress := c.calls.Reply(env)
	if call == nil {
		return
	}
	done := &call.Data
	done.replies = append(done.replies, Reply{Group: env.From.Group(), At: c.s.Now()})
	if progress != Completed {
		return
	}
	c.completed++
	sort.Slice(done.replies, func(i, j int) bool {
		if done.replies[i].At != done.replies[j].At {
			return done.replies[i].At < done.replies[j].At
		}
		return done.replies[i].Group < done.replies[j].Group
	})
	if c.cfg.OnComplete != nil {
		c.cfg.OnComplete(Completion{Msg: call.Msg, Issued: done.issued, Replies: done.replies})
	}
	if c.stop {
		return
	}
	if c.cfg.ThinkTime > 0 {
		c.s.Schedule(c.cfg.ThinkTime, c.issue)
	} else {
		c.issue()
	}
}
