// Package flexcast is a Go implementation of FlexCast — the genuine
// overlay-based atomic multicast protocol of Batista, Coelho, Alchieri,
// Dotti and Pedone (Middleware 2023, arXiv:2309.14074) — together with
// the two baselines the paper evaluates against (Skeen's distributed
// genuine protocol and a ByzCast-style hierarchical tree protocol), the
// gTPC-C benchmark, an emulated 12-region WAN, a deterministic
// discrete-event simulator, real in-memory and TCP runtimes, and a
// Paxos-based state machine replication substrate for fault-tolerant
// groups.
//
// # Quick start
//
// Build a three-group FlexCast cluster and multicast to it:
//
//	ov, _ := flexcast.NewOverlay([]flexcast.GroupID{1, 2, 3})
//	cl, _ := flexcast.NewCluster(flexcast.ClusterConfig{
//		Overlay: ov,
//		OnDeliver: func(d flexcast.Delivery) {
//			fmt.Printf("group %d delivered %s\n", d.Group, d.Msg.Payload)
//		},
//	})
//	defer cl.Close()
//	cl.Call([]flexcast.GroupID{1, 3}, []byte("hello"))
//
// # Protocol in one paragraph
//
// Groups are ranked on a complete DAG: every group has a FIFO reliable
// channel to every higher-ranked group. A message enters the overlay at
// its lca — the lowest-ranked destination — which delivers immediately
// and propagates the message (with a diff of its delivery history) to the
// other destinations. Lower destinations acknowledge to higher ones, and
// groups that hold relevant ordering information without being
// destinations are notified so they flush it down the DAG. A destination
// delivers once it holds every required acknowledgment and no undelivered
// message addressed to it precedes the message in its history. Only the
// sender and destinations (plus previously involved groups) ever
// communicate — the protocol is genuine — and the global delivery order
// is acyclic.
//
// # Reproducing the paper
//
// Every table and figure of the paper's evaluation is a paper-*
// experiment of experiments.json, run on the simulated WAN by
// cmd/flexgrid (-cells '^paper-'); see EXPERIMENTS.md for the
// paper-vs-measured record and DESIGN.md for the experiment index.
package flexcast

import (
	"flexcast/amcast"
	"flexcast/internal/overlay"
	"flexcast/internal/wan"
)

// Core identifiers and message types, shared by every protocol.
type (
	// GroupID identifies a server group (1-based).
	GroupID = amcast.GroupID
	// MsgID is a globally unique message identifier.
	MsgID = amcast.MsgID
	// NodeID addresses a process (group server or client).
	NodeID = amcast.NodeID
	// Message is an application message handed to multicast.
	Message = amcast.Message
	// Delivery is a message delivered at a group, with its group-local
	// sequence number.
	Delivery = amcast.Delivery
	// Envelope is the wire unit exchanged between nodes.
	Envelope = amcast.Envelope
	// Engine is the deterministic protocol state machine interface.
	Engine = amcast.Engine
)

// Overlay is FlexCast's complete-DAG overlay: a total order (rank) over
// groups where each group can send to every higher-ranked group.
type Overlay = overlay.CDAG

// Tree is the hierarchical baseline's tree overlay.
type Tree = overlay.Tree

// NewOverlay builds a C-DAG overlay whose rank order is the given group
// sequence (first group = lowest rank).
func NewOverlay(order []GroupID) (*Overlay, error) { return overlay.NewCDAG(order) }

// NewTree builds a tree overlay from a root and a parent→children map.
func NewTree(root GroupID, children map[GroupID][]GroupID) (*Tree, error) {
	return overlay.NewTree(root, children)
}

// GreedyChain builds a rank order with the paper's O1/O2 rule: start at a
// group and repeatedly append the closest unvisited group (rtt returns a
// symmetric distance).
func GreedyChain(start GroupID, groups []GroupID, rtt func(a, b GroupID) int64) ([]GroupID, error) {
	return overlay.GreedyChain(start, groups, rtt)
}

// AWS topology of the paper's evaluation (12 regions, Figure 4).
var (
	// AWSGroups lists the 12 region groups.
	AWSGroups = wan.Groups
	// AWSRegionName maps a group to its AWS region name.
	AWSRegionName = wan.RegionName
	// AWSRTTMicros returns the inter-region round-trip time in µs.
	AWSRTTMicros = wan.RTTMicros
	// O1 is the paper's primary FlexCast overlay (greedy chain from
	// Frankfurt).
	O1 = wan.O1
	// O2 is the alternative FlexCast overlay (greedy chain from Ohio).
	O2 = wan.O2
	// T1, T2, T3 are the paper's hierarchical trees.
	T1 = wan.T1
	T2 = wan.T2
	T3 = wan.T3
)
