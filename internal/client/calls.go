// Package client is the one implementation of the client half of the
// protocol: Calls, the table every client in the repository issues
// requests and collects replies through — the root package's clusters,
// loadgen, the chaos explorer's simulated clients, cmd/flexclient. It
// knows no clock, transport or lock.
package client

import (
	"slices"

	"flexcast/amcast"
)

// RouteFunc maps a message to the protocol's entry node(s): the lowest
// common ancestor for FlexCast and the hierarchical protocol, every
// destination for Skeen's (deploy.Deployment.Route).
type RouteFunc func(m amcast.Message) []amcast.NodeID

// Calls is the client half of the protocol as a table of open calls: a
// call opens when its message is issued and closes when every
// destination group has replied once. It knows no clock, transport or
// lock — the caller owns all three and calls the table under whatever
// already serializes its reply handling — and keeps nothing of a
// completed call, so its size is the number of calls in flight. T is the
// caller's per-call data; it lives in the entry.
type Calls[T any] struct {
	id    amcast.NodeID
	route RouteFunc
	open  map[amcast.MsgID]*Call[T]
	// Prefix is the delivered prefix the client has observed per group.
	// Every reply is folded in, stale and duplicate ones too (they still
	// witness a delivered prefix); callers fold read watermarks in.
	Prefix amcast.PrefixTracker
}

// Call is one open call. Result, Diverged and Unexecuted fold the
// destinations' verdicts as their first replies arrive and are final
// once Reply reports Completed.
type Call[T any] struct {
	Msg  amcast.Message
	Data T
	// Result is the first verdict a destination reported (ResultNone
	// while none has); Diverged, that two destinations reported different
	// ones — the deterministic-execution contract broke.
	Result   uint8
	Diverged bool
	// Unexecuted is the first destination that replied without a verdict
	// (NoGroup if none did): on an executing deployment, a shard that
	// skipped the transaction; pure multicast never carries verdicts.
	Unexecuted amcast.GroupID

	// Bit i of waiting is set while Msg.Dst[i] has not replied; more
	// holds destinations 64 and up (nil for any realistic set).
	waiting uint64
	more    []uint64
	left    int
}

// Progress is what one inbound envelope did to the table: NotReply (not
// a KindReply, nothing touched); Stale (a reply that advanced no call:
// id unknown, completed or abandoned, group not a destination or heard
// before); Advanced (a destination's first reply, call still open);
// Completed (the last one: the call has left the table and no later
// envelope reports it).
type Progress uint8

const (
	NotReply Progress = iota
	Stale
	Advanced
	Completed
)

// NewCalls returns client number client's empty table.
func NewCalls[T any](client int, route RouteFunc) *Calls[T] {
	return &Calls[T]{
		id:     amcast.ClientNode(client),
		route:  route,
		open:   make(map[amcast.MsgID]*Call[T]),
		Prefix: make(amcast.PrefixTracker),
	}
}

// ID returns the client's node id, the sender of every message it builds.
func (t *Calls[T]) ID() amcast.NodeID { return t.id }

// Len returns the number of open calls.
func (t *Calls[T]) Len() int { return len(t.open) }

// Open reports whether the call of id is open.
func (t *Calls[T]) Open(id amcast.MsgID) bool { return t.open[id] != nil }

// Message builds the client's message number seq — id NewMsgID(client,
// seq), sent by the client's node — normalizing dst in place.
func (t *Calls[T]) Message(seq uint64, dst []amcast.GroupID, flags amcast.MsgFlags, payload []byte) amcast.Message {
	return amcast.Message{
		ID:      amcast.NewMsgID(t.id.ClientIndex(), seq),
		Sender:  t.id,
		Dst:     amcast.NormalizeDst(dst),
		Flags:   flags,
		Payload: payload,
	}
}

// Issue opens the call of m, whose Dst is normalized and not empty
// (Message builds one). Issuing an id that is open is a caller bug.
func (t *Calls[T]) Issue(m amcast.Message, data T) *Call[T] {
	if t.open[m.ID] != nil {
		panic("client: message " + m.ID.String() + " issued while still open")
	}
	n := len(m.Dst)
	c := &Call[T]{Msg: m, Data: data, left: n, waiting: ^uint64(0)}
	if n < 64 {
		c.waiting = 1<<n - 1
	} else {
		c.more = make([]uint64, (n-1)/64)
		for i := 64; i < n; i++ {
			c.more[i/64-1] |= 1 << (i % 64)
		}
	}
	t.open[m.ID] = c
	return c
}

// Requests hands send m's KindRequest envelope once per entry node of
// the route. It touches nothing Issue or Reply write, so a caller that
// issues under a lock may transmit outside it.
func (t *Calls[T]) Requests(m amcast.Message, send func(to amcast.NodeID, env amcast.Envelope)) {
	for _, to := range t.route(m) {
		send(to, amcast.Envelope{Kind: amcast.KindRequest, From: t.id, Msg: m})
	}
}

// Reply folds one inbound envelope and returns the call it advanced or
// completed (nil otherwise), with that destination's verdict folded in.
func (t *Calls[T]) Reply(env amcast.Envelope) (*Call[T], Progress) {
	if env.Kind != amcast.KindReply {
		return nil, NotReply
	}
	t.Prefix.Observe(env)
	c := t.open[env.Msg.ID]
	if c == nil {
		return nil, Stale
	}
	g := env.From.Group()
	i, ok := slices.BinarySearch(c.Msg.Dst, g)
	if !ok {
		return nil, Stale
	}
	w, bit := &c.waiting, uint64(1)<<(i%64)
	if i >= 64 {
		w = &c.more[i/64-1]
	}
	if *w&bit == 0 {
		return nil, Stale
	}
	*w &^= bit
	switch {
	case env.Result == amcast.ResultNone:
		if c.Unexecuted == amcast.NoGroup {
			c.Unexecuted = g
		}
	case c.Result == amcast.ResultNone:
		c.Result = env.Result
	case c.Result != env.Result:
		c.Diverged = true
	}
	if c.left--; c.left > 0 {
		return c, Advanced
	}
	delete(t.open, env.Msg.ID)
	return c, Completed
}

// Abandon closes the call of id without completing it (the caller's
// timeout) and returns it, nil when id is not open.
func (t *Calls[T]) Abandon(id amcast.MsgID) *Call[T] {
	c := t.open[id]
	delete(t.open, id)
	return c
}

// Sweep abandons every open call abandon reports true for.
func (t *Calls[T]) Sweep(abandon func(c *Call[T]) bool) {
	for id, c := range t.open {
		if abandon(c) {
			delete(t.open, id)
		}
	}
}
