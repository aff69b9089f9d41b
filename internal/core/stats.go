package core

import (
	"sync/atomic"

	"flexcast/amcast"
)

// Stats counts, over every engine of the process, the history nodes the
// engines ship and merge. Nodes are split by whether they rode a flush's
// MSG or ack (index 1) or any other envelope (index 0).
type Stats struct {
	// NodesSent counts the history nodes on the envelopes the engines
	// sent, one count per envelope even where destinations share a delta.
	NodesSent [2]uint64
	// NodesNew counts the merged nodes that were new to the receiving
	// history: unknown before, or a placeholder whose destinations the
	// merge filled in.
	NodesNew [2]uint64
}

type counters struct {
	nodesSent, nodesNew [2]atomic.Uint64
}

var stats counters

// flushKind is the Stats index of the envelopes about m.
func flushKind(m amcast.Message) int {
	if m.Flags&amcast.FlagFlush != 0 {
		return 1
	}
	return 0
}

// ReadStats returns the counters as they are now.
func ReadStats() Stats {
	return Stats{
		NodesSent: [2]uint64{stats.nodesSent[0].Load(), stats.nodesSent[1].Load()},
		NodesNew:  [2]uint64{stats.nodesNew[0].Load(), stats.nodesNew[1].Load()},
	}
}

// Since returns the counters accumulated since prev was read.
func (s Stats) Since(prev Stats) Stats {
	for i := range s.NodesSent {
		s.NodesSent[i] -= prev.NodesSent[i]
		s.NodesNew[i] -= prev.NodesNew[i]
	}
	return s
}
