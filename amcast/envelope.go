package amcast

import (
	"fmt"
	"sort"
)

// Kind discriminates the wire envelopes exchanged by the protocols.
type Kind uint8

const (
	// KindRequest is a client request entering a protocol: the client sends
	// the application message to the protocol-specific entry node(s)
	// (FlexCast: the lca; hierarchical: the tree lowest common ancestor;
	// Skeen: every destination).
	KindRequest Kind = iota + 1
	// KindMsg is FlexCast's application-message propagation from the lca to
	// the remaining destinations, carrying a history diff.
	KindMsg
	// KindAck is FlexCast's acknowledgment from a destination (or a
	// notified group) to higher destinations, carrying a history diff and
	// the sender's accumulated notification list (Strategy b).
	KindAck
	// KindNotif is FlexCast's notification to a non-destination group that
	// must propagate its dependencies down the C-DAG (Strategy c).
	KindNotif
	// KindTS is Skeen's local-timestamp exchange between destinations.
	KindTS
	// KindFwd is the hierarchical protocol's downward forwarding of an
	// application message along the tree.
	KindFwd
	// KindReply is the per-destination response a group sends to the
	// message's client upon delivery (paper §5.2). Replies from executing
	// deployments additionally piggyback the serving node's delivered-
	// prefix watermark (Envelope.Watermark) — the adaptive session-barrier
	// feed (DESIGN.md §1e).
	KindReply
	// KindRead is a read-only transaction addressed to one serving node
	// outside the multicast: the client sends the encoded transaction
	// (Msg.Payload) with its session barrier in TS, and the node answers
	// with a KindReply carrying the read's value and watermark. It is the
	// remote leg of the read path — used when the client is not co-located
	// with a replica holding a read lease (DESIGN.md §1e). Read envelopes
	// never enter a protocol engine; the runtime serves them directly.
	KindRead
)

// String names the envelope kind for logs and metrics.
func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "REQUEST"
	case KindMsg:
		return "MSG"
	case KindAck:
		return "ACK"
	case KindNotif:
		return "NOTIF"
	case KindTS:
		return "TS"
	case KindFwd:
		return "FWD"
	case KindReply:
		return "REPLY"
	case KindRead:
		return "READ"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsPayload reports whether envelopes of this kind carry the application
// payload. The paper's communication-overhead metric (Figures 1 and 9)
// counts payload messages only.
func (k Kind) IsPayload() bool {
	switch k {
	case KindRequest, KindMsg, KindFwd, KindRead:
		return true
	default:
		return false
	}
}

// Envelope is the unit of communication between nodes. A single envelope
// type (with optional fields) keeps the codec simple and makes message-size
// accounting uniform across protocols.
type Envelope struct {
	// Kind discriminates the envelope.
	Kind Kind
	// From is the sending node.
	From NodeID
	// Msg carries the application message. For auxiliary kinds (ACK, NOTIF,
	// TS, REPLY) only the header (id, sender, dst) is present.
	Msg Message
	// Hist is the FlexCast history diff piggybacked on MSG/ACK/NOTIF
	// envelopes (diff-hst in Algorithm 3). Nil for other kinds.
	Hist *HistDelta
	// NotifList carries the notification pairs known so far about Msg
	// (FlexCast MSG/ACK envelopes; Algorithm 3 line 40). Pairs rather
	// than a flat group set: a destination must match each notified
	// ancestor's flush ack against the notifier whose history triggered
	// the notification, or a flush ack predating a later notifier's
	// dependencies could satisfy the wait too early (see DESIGN.md §4).
	// Each pair carries the notifier's certification epoch for the
	// notified group — destinations wait for a flush ack covering at
	// least that epoch, which is what closes the fresh-request
	// staircase ring (DESIGN.md §4 deviation 8).
	NotifList []NotifPair
	// AckCovers, on a notified group's flush ACK, names the notifiers
	// whose notifications this ack answers, each with the highest
	// certification epoch answered. Empty on destination acks.
	AckCovers []AckCover
	// CertEpoch is the certification epoch of a KindNotif envelope
	// (≥ 1). A notifier bumps it when traffic addressed to the notified
	// group entered its history since the last NOTIF about this
	// message, so the re-NOTIF carrying a fresh edge is not foldable as
	// a duplicate. 0 on every other kind.
	CertEpoch uint64
	// TS is the Skeen local timestamp (KindTS), the delivery sequence
	// number on KindReply envelopes, and the client's read barrier on
	// KindRead envelopes.
	TS uint64
	// TSFrom is the group that assigned TS (KindTS).
	TSFrom GroupID
	// Result is the execution outcome on KindReply envelopes when the
	// replying group executes deliveries against application state
	// (ResultCommitted/ResultAborted, ResultRefused for refused reads;
	// ResultNone otherwise).
	Result uint8
	// Watermark, on KindReply envelopes from executing deployments, is
	// the serving node's delivered-prefix watermark when the reply was
	// built — at least TS+1 for delivery replies, and the read's
	// serialization prefix for read replies. Clients fold it into their
	// session barrier (PrefixTracker), which is what makes the barrier
	// adaptive: it advances with the freshest state the session has
	// witnessed, not just its own writes' sequence numbers. 0 on
	// pure-multicast deployments.
	Watermark uint64
	// Value is the read's result on KindReply envelopes answering a
	// KindRead transaction (Msg.Flags has FlagRead): the order id for
	// order-status (-1 when none), the low-stock count for stock-level.
	Value int64
}

// NotifPair records that Notifier sent a NOTIF about a message to
// Notified (a non-destination holding relevant ordering information),
// most recently at certification epoch Epoch (≥ 1).
type NotifPair struct {
	// Notifier sent the NOTIF; Notified received it.
	Notifier, Notified GroupID
	// Epoch is the highest certification epoch the notifier has sent
	// for this (message, notified) pair.
	Epoch uint64
}

// NormalizePairs sorts pairs by (notifier, notified) and collapses
// duplicates keeping the highest epoch, in place; deterministic
// encoding needs a canonical order, and a destination merging pair
// lists from several envelopes must keep the freshest certification.
func NormalizePairs(ps []NotifPair) []NotifPair {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Notifier != ps[j].Notifier {
			return ps[i].Notifier < ps[j].Notifier
		}
		if ps[i].Notified != ps[j].Notified {
			return ps[i].Notified < ps[j].Notified
		}
		return ps[i].Epoch < ps[j].Epoch
	})
	out := ps[:0]
	for _, p := range ps {
		if n := len(out); n > 0 && out[n-1].Notifier == p.Notifier && out[n-1].Notified == p.Notified {
			out[n-1].Epoch = p.Epoch // sorted ascending: p's epoch is the max
			continue
		}
		out = append(out, p)
	}
	return out
}

// AckCover is one entry of a notified group's flush-ack cover list:
// the ack answers Notifier's notifications up to certification epoch
// Epoch (≥ 1).
type AckCover struct {
	// Notifier is the group whose notifications this ack answers.
	Notifier GroupID
	// Epoch is the highest certification epoch answered.
	Epoch uint64
}

// NormalizeCovers sorts covers by notifier and collapses duplicates
// keeping the highest epoch, in place — the canonical encoding of a
// flush ack's cover list.
func NormalizeCovers(cs []AckCover) []AckCover {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Notifier != cs[j].Notifier {
			return cs[i].Notifier < cs[j].Notifier
		}
		return cs[i].Epoch < cs[j].Epoch
	})
	out := cs[:0]
	for _, c := range cs {
		if n := len(out); n > 0 && out[n-1].Notifier == c.Notifier {
			out[n-1].Epoch = c.Epoch
			continue
		}
		out = append(out, c)
	}
	return out
}

// HistNode is one vertex of a history diff: a message id plus its
// destination set (the paper's "a vertex contains a message's id and
// destinations").
type HistNode struct {
	// ID is the message's id; Dst its destination set.
	ID  MsgID
	Dst []GroupID
}

// HistEdge is one dependency edge of a history diff: From was ordered
// before To.
type HistEdge struct {
	// From was ordered before To.
	From, To MsgID
}

// HistDelta is the incremental portion of a group's history sent to one
// descendant (diff-hst in Algorithm 3). Nodes and Edges are sorted for
// deterministic encoding.
type HistDelta struct {
	// Nodes and Edges are the diff's vertices and dependency edges,
	// sorted for deterministic encoding.
	Nodes []HistNode
	Edges []HistEdge
}

// Empty reports whether the delta carries no information.
func (d *HistDelta) Empty() bool {
	return d == nil || (len(d.Nodes) == 0 && len(d.Edges) == 0)
}

// Output is an envelope queued for transmission to another node.
type Output struct {
	// To is the destination node; Env the envelope to transmit.
	To  NodeID
	Env Envelope
}

// ReplyFor builds the KindReply envelope node from answers delivery d
// with: the message header, the group-local sequence number, the
// execution verdict and the serving node's watermark. Every host that
// acknowledges deliveries to clients builds its reply here, so none can
// drop a field.
func ReplyFor(from NodeID, d Delivery) Envelope {
	return Envelope{
		Kind:      KindReply,
		From:      from,
		Msg:       d.Msg.Header(),
		TS:        d.Seq,
		Result:    d.Result,
		Watermark: d.Watermark,
	}
}

// PrefixTracker is a session barrier: the per-group vector of delivered
// prefixes a client session has observed. Two feeds advance it. Every
// KindReply envelope answers one delivery and carries its group-local
// sequence number (Envelope.TS), so a reply witnesses that deliveries
// 0..TS have been applied at the replying group; executing deployments
// additionally piggyback the serving node's watermark on replies and
// read results (Envelope.Watermark), which can run ahead of TS+1 and is
// folded too. The tracked vector is the read-your-writes barrier of the
// read fast path (internal/store, DESIGN.md §1d/§1e): a read at group g
// served at barrier Prefix(g) sees every delivery the session has
// already observed there, at whichever replica serves it, and folding
// read watermarks back in (Fold) makes successive reads monotonic even
// when they land on different replicas. Every harness that derives read
// barriers from replies folds them through this one type. Not
// synchronized — callers guard it with whatever protects their reply
// handling.
type PrefixTracker map[GroupID]uint64

// Observe folds one envelope into the tracker (non-reply kinds are
// ignored). Delivery replies raise the group's prefix to TS+1; replies
// of either kind also fold the piggybacked watermark — read replies
// (FlagRead) carry no delivery sequence, so only their watermark counts.
func (t PrefixTracker) Observe(env Envelope) {
	if env.Kind != KindReply {
		return
	}
	g := env.From.Group()
	if env.Msg.Flags&FlagRead == 0 && env.TS+1 > t[g] {
		t[g] = env.TS + 1
	}
	if env.Watermark > t[g] {
		t[g] = env.Watermark
	}
}

// Fold raises the tracked prefix at group g to at least prefix — the
// feed for read results observed outside the reply path (local replica
// reads return their serving watermark directly).
func (t PrefixTracker) Fold(g GroupID, prefix uint64) {
	if prefix > t[g] {
		t[g] = prefix
	}
}

// Prefix returns the observed delivered prefix at group g.
func (t PrefixTracker) Prefix(g GroupID) uint64 { return t[g] }
