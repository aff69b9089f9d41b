package runtime

import "flexcast/internal/telemetry"

// RegisterTelemetry publishes the live runtime state of a deployment's
// nodes on reg: inbound queue depth (total and deepest), backpressure
// stalls, and the batch-fill and flush-reason counters, whose ratio
// shows whether batching is fill-driven (throughput-bound) or
// chunk-driven (idle). clients are the batchers of in-process client
// endpoints, folded into the batch figures. Everything is a read-through callback over state the nodes
// maintain anyway, and registering again replaces the previous entries.
func RegisterTelemetry(reg *telemetry.Registry, nodes []*Node, clients []*Batcher) {
	reg.RegisterCounter("backpressure_stalls", func() uint64 {
		var n uint64
		for _, nd := range nodes {
			s, _ := nd.Backpressure()
			n += s
		}
		return n
	})
	reg.RegisterCounter("backpressure_stall_ns", func() uint64 {
		var n uint64
		for _, nd := range nodes {
			_, ns := nd.Backpressure()
			n += ns
		}
		return n
	})
	reg.RegisterGauge("queue_depth_total", func() float64 {
		total := 0
		for _, nd := range nodes {
			total += nd.QueueLen()
		}
		return float64(total)
	})
	reg.RegisterGauge("queue_depth_max", func() float64 {
		deepest := 0
		for _, nd := range nodes {
			deepest = max(deepest, nd.QueueLen())
		}
		return float64(deepest)
	})
	batchStats := func() BatcherStats { return SumStats(nodes, clients) }
	reg.RegisterCounter("batch_size_flushes", func() uint64 { return batchStats().SizeFlushes })
	reg.RegisterCounter("batch_chunk_flushes", func() uint64 { return batchStats().ChunkFlushes })
	reg.RegisterGauge("batch_avg", func() float64 { return batchStats().AvgBatch() })
}

// SumStats totals the batcher counters of nodes and client batchers.
func SumStats(nodes []*Node, clients []*Batcher) BatcherStats {
	var s BatcherStats
	for _, nd := range nodes {
		s.Add(nd.Stats())
	}
	for _, b := range clients {
		s.Add(b.Stats())
	}
	return s
}
