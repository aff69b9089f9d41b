// Package metrics holds the repository's two measuring instruments: a
// group's traffic counters (this file) and the latency histogram
// (histogram.go). The counters back the paper's communication-overhead
// metric (Figures 1 and 9, Table 4: overhead = 1 − delivered/received
// over payload messages) and the message-cost experiment (Figure 8:
// messages per second, average message size, and KB/s per node).
package metrics

import (
	"flexcast/amcast"
	"flexcast/internal/codec"
)

// NodeCounters counts one node's received traffic and deliveries. The
// simulator that feeds it is single-threaded, so the counters are plain
// integers.
type NodeCounters struct {
	EnvsReceived  uint64
	BytesReceived uint64
	// PayloadReceived counts received envelopes of payload-carrying kinds
	// (REQUEST/MSG/FWD) — the denominator of the overhead metric.
	PayloadReceived uint64
	// Delivered counts application messages delivered by the node — the
	// numerator of the overhead metric.
	Delivered uint64
}

// OnReceive counts one envelope sent to the node; its wire size is the
// real codec's, so simulated and TCP runs report identical bytes.
func (c *NodeCounters) OnReceive(env amcast.Envelope) {
	c.EnvsReceived++
	c.BytesReceived += uint64(codec.Size(env))
	if env.Kind.IsPayload() {
		c.PayloadReceived++
	}
}

// Overhead returns the paper's communication overhead for this node:
// 1 − delivered/received over payload messages, as a fraction in [0,1].
// Nodes that received nothing report 0.
func (c NodeCounters) Overhead() float64 {
	if c.PayloadReceived == 0 {
		return 0
	}
	ratio := float64(c.Delivered) / float64(c.PayloadReceived)
	if ratio > 1 {
		ratio = 1
	}
	return 1 - ratio
}

// AvgReceivedSize returns the mean received envelope size in bytes.
func (c NodeCounters) AvgReceivedSize() float64 {
	if c.EnvsReceived == 0 {
		return 0
	}
	return float64(c.BytesReceived) / float64(c.EnvsReceived)
}
