package runtime

import "flexcast/internal/telemetry"

// RegisterTelemetry publishes the live runtime state of a deployment's
// nodes on reg: inbound queue depth (total and deepest), backpressure
// stalls, the operating point of the adaptive controller (the widest
// batch and longest flush interval any node currently runs at; static
// nodes report their configured constants), and the batch-fill and
// flush-reason counters, whose ratio shows whether batching is
// fill-driven (throughput-bound) or timer-driven (idle). clients are the
// batchers of in-process client endpoints, folded into the batch
// figures. Everything is a read-through callback over state the nodes
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
	reg.RegisterGauge("adaptive_batch_max", func() float64 {
		widest := 0
		for _, nd := range nodes {
			b, _ := nd.Operating()
			widest = max(widest, b)
		}
		return float64(widest)
	})
	reg.RegisterGauge("adaptive_flush_interval_us_max", func() float64 {
		var longest int64
		for _, nd := range nodes {
			_, iv := nd.Operating()
			longest = max(longest, iv.Microseconds())
		}
		return float64(longest)
	})
	batchStats := func() BatcherStats { return SumStats(nodes, clients) }
	reg.RegisterCounter("batch_size_flushes", func() uint64 { return batchStats().SizeFlushes })
	reg.RegisterCounter("batch_chunk_flushes", func() uint64 { return batchStats().ChunkFlushes })
	reg.RegisterCounter("batch_timer_flushes", func() uint64 { return batchStats().TimerFlushes })
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
