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
// cost — and re-registration (a grid runs many configurations in one
// process) replaces the previous run's entries, so the endpoint always
// reflects the latest deployment.
func registerTelemetry(r *run, dep *deployment, clients []*clientProc) {
	reg := telemetry.Default
	reg.RegisterTracer("write_path", r.tracer) // nil when tracing is off: unregisters a stale entry

	reg.RegisterHistogram("wal_fsync_ns", durable.FsyncHist())
	reg.RegisterHistogram("snapshot_write_ns", durable.SnapshotHist())
	reg.RegisterHistogram("snapshot_persist_ns", durable.SnapshotPersistHist())
	reg.RegisterHistogram("snapshot_backpressure_ns", durable.SnapshotBackpressureHist())
	reg.RegisterHistogram("snapshot_body_bytes", durable.SnapshotBodyBytesHist())
	reg.RegisterHistogram("snapshot_ship_ns", store.SnapshotShipHist())

	reg.RegisterCounter("issued", r.issued.Load)
	reg.RegisterCounter("completed", r.completed.Load)
	reg.RegisterCounter("reads", r.reads.Load)
	reg.RegisterCounter("shed", r.shed.Load)
	reg.RegisterCounter("slo_good", r.good.Load)
	reg.RegisterCounter("lease_refusals", r.leaseRefusals.Load)
	reg.RegisterCounter("remote_reads", r.remoteReads.Load)

	runtime.RegisterTelemetry(reg, dep.nodes, clientBatchers(clients))

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

// clientBatchers lists the client processes' output batchers.
func clientBatchers(clients []*clientProc) []*runtime.Batcher {
	out := make([]*runtime.Batcher, len(clients))
	for i, c := range clients {
		out[i] = c.batcher
	}
	return out
}
