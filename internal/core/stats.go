package core

import (
	"sync/atomic"
	"time"

	"flexcast/amcast"
)

// Stats counts, over every engine of the process, the history nodes the
// engines ship and merge and the envelopes flush holds delay. Nodes are
// split by whether they rode a flush's MSG or ack (index 1) or any other
// envelope (index 0).
type Stats struct {
	// NodesSent counts the history nodes on the envelopes the engines
	// sent, one count per envelope even where destinations share a delta.
	NodesSent [2]uint64
	// NodesNew counts the merged nodes that were new to the receiving
	// history: unknown before, or a placeholder whose destinations the
	// merge filled in.
	NodesNew [2]uint64
	// EnvsHeld counts the envelopes a flush hold delayed (DESIGN.md §4
	// deviation 10); HoldMaxNs is the longest hold since ResetHoldMax.
	EnvsHeld  uint64
	HoldMaxNs uint64
}

type counters struct {
	nodesSent, nodesNew [2]atomic.Uint64
	held, holdMax       atomic.Uint64
}

var stats counters

// flushKind is the Stats index of the envelopes about m.
func flushKind(m amcast.Message) int {
	if m.Flags&amcast.FlagFlush != 0 {
		return 1
	}
	return 0
}

// noteHold folds one ended hold into the hold-time maximum.
func (c *counters) noteHold(d time.Duration) {
	ns := uint64(max(d, 0))
	for {
		cur := c.holdMax.Load()
		if ns <= cur || c.holdMax.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ReadStats returns the counters as they are now.
func ReadStats() Stats {
	return Stats{
		NodesSent: [2]uint64{stats.nodesSent[0].Load(), stats.nodesSent[1].Load()},
		NodesNew:  [2]uint64{stats.nodesNew[0].Load(), stats.nodesNew[1].Load()},
		EnvsHeld:  stats.held.Load(),
		HoldMaxNs: stats.holdMax.Load(),
	}
}

// ResetHoldMax restarts the hold-time maximum, at the start of a run.
func ResetHoldMax() { stats.holdMax.Store(0) }

// Since returns the counters accumulated since prev was read; the hold
// maximum is s's.
func (s Stats) Since(prev Stats) Stats {
	for i := range s.NodesSent {
		s.NodesSent[i] -= prev.NodesSent[i]
		s.NodesNew[i] -= prev.NodesNew[i]
	}
	s.EnvsHeld -= prev.EnvsHeld
	return s
}
