package loadgen

import (
	"flexcast/internal/durable"
	"flexcast/internal/runtime"
	"flexcast/internal/store"
	"flexcast/internal/telemetry"
)

// registerTelemetry publishes the run's live state to the process-wide
// telemetry registry, so a -telemetry endpoint started by the command
// serves it mid-run. Everything registered is a read-through callback
// over state the run maintains anyway — registration adds no hot-path
// cost — and re-registration (flexload -ab runs several configurations
// in one process) replaces the previous run's entries, so the endpoint
// always reflects the latest deployment.
func registerTelemetry(r *run, dep *deployment, clients []*clientProc) {
	reg := telemetry.Default
	reg.RegisterTracer("write_path", r.tracer) // nil when tracing is off: unregisters a stale entry

	reg.RegisterHistogram("wal_fsync_ns", durable.FsyncHist())
	reg.RegisterHistogram("snapshot_write_ns", durable.SnapshotHist())
	reg.RegisterHistogram("snapshot_persist_ns", durable.SnapshotPersistHist())
	reg.RegisterHistogram("snapshot_backpressure_ns", durable.SnapshotBackpressureHist())
	reg.RegisterHistogram("snapshot_ship_ns", store.SnapshotShipHist())

	reg.RegisterCounter("issued", r.issued.Load)
	reg.RegisterCounter("completed", r.completed.Load)
	reg.RegisterCounter("reads", r.reads.Load)
	reg.RegisterCounter("shed", r.shed.Load)
	reg.RegisterCounter("slo_good", r.good.Load)
	reg.RegisterCounter("lease_refusals", r.leaseRefusals.Load)
	reg.RegisterCounter("remote_reads", r.remoteReads.Load)

	nodes := dep.nodes
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
		max := 0
		for _, nd := range nodes {
			if l := nd.QueueLen(); l > max {
				max = l
			}
		}
		return float64(max)
	})

	// Adaptive controller operating point, live: the widest batch and
	// longest flush interval any node is currently running at (static
	// runs report the configured constants).
	reg.RegisterGauge("adaptive_batch_max", func() float64 {
		max := 0
		for _, nd := range nodes {
			if b, _ := nd.Operating(); b > max {
				max = b
			}
		}
		return float64(max)
	})
	reg.RegisterGauge("adaptive_flush_interval_us_max", func() float64 {
		var max int64
		for _, nd := range nodes {
			if _, iv := nd.Operating(); iv.Microseconds() > max {
				max = iv.Microseconds()
			}
		}
		return float64(max)
	})

	// Batch fill and flush-reason counters, servers and clients combined:
	// their ratio shows whether batching is fill-driven (throughput-bound)
	// or timer-driven (idle).
	batchStats := func() runtime.BatcherStats {
		var s runtime.BatcherStats
		for _, nd := range nodes {
			s.Add(nd.Stats())
		}
		for _, c := range clients {
			s.Add(c.batcher.Stats())
		}
		return s
	}
	reg.RegisterCounter("batch_size_flushes", func() uint64 { return batchStats().SizeFlushes })
	reg.RegisterCounter("batch_chunk_flushes", func() uint64 { return batchStats().ChunkFlushes })
	reg.RegisterCounter("batch_timer_flushes", func() uint64 { return batchStats().TimerFlushes })
	reg.RegisterGauge("batch_avg", func() float64 { return batchStats().AvgBatch() })

	// Replicated-run gauges: lease renewals across follower replicas and
	// the worst follower watermark lag behind its group's serving node.
	proto := r.proto
	if len(proto.Followers) > 0 {
		reg.RegisterCounter("lease_renewals", func() uint64 {
			var n uint64
			for _, reps := range proto.Followers {
				for _, rep := range reps {
					n += rep.Renewals()
				}
			}
			return n
		})
		reg.RegisterGauge("watermark_lag_max", func() float64 {
			var max uint64
			for g, reps := range proto.Followers {
				ex := proto.Executors[g]
				if ex == nil {
					continue
				}
				wm := ex.Watermark()
				for _, rep := range reps {
					if rw := rep.Watermark(); rw < wm && wm-rw > max {
						max = wm - rw
					}
				}
			}
			return float64(max)
		})
	}
}
