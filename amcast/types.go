// Package amcast defines the shared vocabulary of the atomic multicast
// protocols in this repository: group and node identifiers, application
// messages, wire envelopes, deliveries, and the Engine state-machine
// interface that every protocol (FlexCast, Skeen's distributed protocol,
// and the hierarchical tree protocol) implements.
//
// Engines are deterministic, single-threaded state machines: they consume
// one Envelope at a time and emit Outputs (envelopes addressed to other
// nodes) plus Deliveries (messages handed to the application in order).
// The same engine runs unmodified on the discrete-event simulator
// (internal/sim), the in-memory goroutine runtime, and the TCP runtime
// (internal/transport).
package amcast

import (
	"fmt"
	"slices"
	"sort"
)

// GroupID identifies a server group. Groups are numbered 1..N to match the
// paper's Figure 4 numbering; 0 is reserved as "no group".
type GroupID int32

// NoGroup is the zero GroupID, used as a sentinel.
const NoGroup GroupID = 0

// MsgID is a globally unique message identifier. Clients build ids as
// NewMsgID(clientIndex, seq) so ids are unique without coordination and
// provide a deterministic total order for tie-breaking.
type MsgID uint64

// NewMsgID builds a MsgID from a client index and a per-client sequence
// number. The client index occupies the high 24 bits.
func NewMsgID(client int, seq uint64) MsgID {
	return MsgID(uint64(client)<<40 | (seq & (1<<40 - 1)))
}

// Client extracts the client index encoded in the id.
func (id MsgID) Client() int { return int(uint64(id) >> 40) }

// Seq extracts the per-client sequence number encoded in the id.
func (id MsgID) Seq() uint64 { return uint64(id) & (1<<40 - 1) }

// String renders the id as "client/seq" for logs and test failures.
func (id MsgID) String() string { return fmt.Sprintf("%d/%d", id.Client(), id.Seq()) }

// NodeID addresses a process in a deployment: one server process per group
// (single-process groups, as in the paper's evaluation), plus any number of
// client processes. Replicated groups (internal/smr) address replicas
// through their own replica ids and expose the group as one logical NodeID.
type NodeID int32

// clientBase offsets client node ids so they never collide with group ids.
const clientBase NodeID = 1 << 20

// GroupNode returns the NodeID of the (logical) server process of group g.
func GroupNode(g GroupID) NodeID { return NodeID(g) }

// ClientNode returns the NodeID of client number i (i >= 0).
func ClientNode(i int) NodeID { return clientBase + NodeID(i) }

// IsClient reports whether n addresses a client process.
func (n NodeID) IsClient() bool { return n >= clientBase }

// ClientIndex returns the client number for a client NodeID.
func (n NodeID) ClientIndex() int { return int(n - clientBase) }

// Group returns the group addressed by a server NodeID.
func (n NodeID) Group() GroupID { return GroupID(n) }

// String renders the node id as "gN" or "cN".
func (n NodeID) String() string {
	if n.IsClient() {
		return fmt.Sprintf("c%d", n.ClientIndex())
	}
	return fmt.Sprintf("g%d", int32(n))
}

// MsgFlags carries per-message protocol flags.
type MsgFlags uint8

const (
	// FlagFlush marks the periodic garbage-collection message multicast to
	// all groups (paper §4.3). Engines treat it as an ordinary message and
	// additionally prune their histories after delivering it.
	FlagFlush MsgFlags = 1 << iota
	// FlagRead marks a read-only transaction served outside the multicast
	// (KindRead and the KindReply answering it). Read replies carry a
	// watermark but no delivery sequence, so the flag tells the session
	// barrier (PrefixTracker) not to interpret TS as one.
	FlagRead
	// FlagSession marks a message carrying a session id (Message.Session):
	// a multiplexed client connection speaking for many logical sessions
	// stamps each message with the session it belongs to, and replies echo
	// it (Header preserves it), so the demultiplexer on the client side
	// routes completions — and the per-session watermark vectors behind
	// read-your-writes — without one TCP conn per session. On the wire the
	// flag gates the session varint's presence; a set flag with session 0
	// is non-canonical (codec rejects it).
	FlagSession
)

// Message is an application message handed to multicast(m). Dst must be
// sorted, non-empty and duplicate-free; use NormalizeDst.
type Message struct {
	// ID is the globally unique message id (NewMsgID).
	ID MsgID
	// Sender is the client that multicast the message.
	Sender NodeID
	// Dst is the destination group set, sorted ascending.
	Dst []GroupID
	// Flags carries per-message protocol flags (FlagFlush, FlagRead,
	// FlagSession).
	Flags MsgFlags
	// Session identifies the logical client session the message belongs
	// to when the sender multiplexes many sessions over one connection
	// (loadgen's open loop). Nonzero iff Flags&FlagSession is set; ids
	// are allocated by the client layer and opaque to the protocols —
	// engines and replies carry them through untouched.
	Session uint64
	// Payload is the application payload (gtpcc.EncodeTx on executing
	// deployments).
	Payload []byte
}

// IsLocal reports whether m is addressed to a single group (a "local"
// message in the paper's terminology).
func (m Message) IsLocal() bool { return len(m.Dst) == 1 }

// IsGlobal reports whether m is addressed to two or more groups.
func (m Message) IsGlobal() bool { return len(m.Dst) > 1 }

// HasDst reports whether g is one of m's destinations. Dst is sorted, so
// this is a binary search.
func (m Message) HasDst(g GroupID) bool {
	i := sort.Search(len(m.Dst), func(i int) bool { return m.Dst[i] >= g })
	return i < len(m.Dst) && m.Dst[i] == g
}

// Header returns a copy of m without its payload. Auxiliary protocol
// messages (acks, notifications, timestamps) carry only the header, which
// keeps their wire size realistic.
func (m Message) Header() Message {
	h := m
	h.Payload = nil
	return h
}

// Clone returns a deep copy of m.
func (m Message) Clone() Message {
	c := m
	c.Dst = append([]GroupID(nil), m.Dst...)
	c.Payload = append([]byte(nil), m.Payload...)
	return c
}

// NormalizeDst sorts dst ascending and removes duplicates, in place.
func NormalizeDst(dst []GroupID) []GroupID {
	slices.Sort(dst)
	out := dst[:0]
	var prev GroupID = -1
	for _, g := range dst {
		if g != prev {
			out = append(out, g)
			prev = g
		}
	}
	return out
}

// Execution result codes carried on Delivery.Result and on KindReply
// envelopes when a deployment executes deliveries against application
// state (internal/store). 0 is reserved for deployments (or messages,
// e.g. flush multicasts) that do not execute.
const (
	// ResultNone marks a delivery that was not executed.
	ResultNone uint8 = 0
	// ResultCommitted marks a transaction that executed and committed.
	ResultCommitted uint8 = 1
	// ResultAborted marks a transaction that executed and rolled back.
	ResultAborted uint8 = 2
	// ResultRefused marks a read (KindRead) the serving node declined to
	// execute — its lease expired or the requested barrier is ahead of
	// its delivered prefix. The client retries elsewhere or reports it.
	ResultRefused uint8 = 3
)

// Delivery is one message handed to the application by a group, together
// with the group-local delivery sequence number (0-based).
type Delivery struct {
	// Group is the delivering group.
	Group GroupID
	// Seq is the group-local delivery sequence number (0-based).
	Seq uint64
	// Msg is the delivered message.
	Msg Message
	// Result is the execution outcome when the group runs a state
	// machine over its deliveries (ResultCommitted/ResultAborted);
	// ResultNone for pure-multicast deployments. Runtimes copy it onto
	// the KindReply envelope so clients observe commit/abort.
	Result uint8
	// Watermark is the serving node's delivered-prefix watermark after
	// the batch containing this delivery was applied (so at least Seq+1);
	// 0 when the deployment executes no state machine. Runtimes copy it
	// onto the KindReply envelope, feeding the client's session barrier
	// (Envelope.Watermark).
	Watermark uint64
}
