// Ablation benchmarks for the design choices called out in DESIGN.md:
// flush-based garbage collection (§4.3) and Paxos replication of groups
// (§4.4). These do not correspond to paper figures; they quantify the
// cost/benefit of each mechanism in this implementation.
package flexcast_test

import (
	"testing"
	"time"

	"flexcast"
)

// BenchmarkAblationFlushGC compares FlexCast's per-node traffic with and
// without the periodic flush (§4.3). The trade-off this quantifies:
//
//   - gc-on pays a steady broadcast tax (the flush message is multicast
//     to every group and its acks carry history diffs to every
//     descendant), but history size — and hence per-delivery CPU and
//     diff size — stays flat for arbitrarily long runs.
//   - gc-off avoids that tax, so at short horizons its bytes/envelope is
//     lower, but histories grow without bound: wall-clock time per
//     simulated second (the ns/op column) degrades several-fold even at
//     this 8-virtual-second horizon, and bytes/envelope rises with run
//     length until it overtakes gc-on.
func BenchmarkAblationFlushGC(b *testing.B) {
	run := func(b *testing.B, flushEvery int64) float64 {
		b.Helper()
		res, err := flexcast.RunExperiment(flexcast.FlexCast, flexcast.ExperimentConfig{
			Locality:   0.95,
			Clients:    120,
			GlobalOnly: true,
			Duration:   8_000_000,
			Seed:       1,
			FlushEvery: flushEvery,
		})
		if err != nil {
			b.Fatal(err)
		}
		var envs, bytes float64
		for _, c := range res.Traffic {
			envs += float64(c.EnvsReceived)
			bytes += float64(c.BytesReceived)
		}
		return bytes / envs
	}
	b.Run("gc-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(run(b, 250_000), "B/envelope")
		}
	})
	b.Run("gc-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(run(b, 0), "B/envelope")
		}
	})
}

// BenchmarkAblationReplication measures the virtual-time delivery latency
// of a three-group FlexCast multicast when groups are single-process
// versus Paxos-replicated (1 vs 3 replicas). The difference is the
// intra-group consensus cost the paper's evaluation deliberately excludes
// (§5.1: "avoids overhead introduced by replication").
func BenchmarkAblationReplication(b *testing.B) {
	for _, replicas := range []int{1, 3, 5} {
		replicas := replicas
		b.Run(map[int]string{1: "single", 3: "three-replicas", 5: "five-replicas"}[replicas], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ov, err := flexcast.NewOverlay([]flexcast.GroupID{1, 2, 3})
				if err != nil {
					b.Fatal(err)
				}
				cl, err := flexcast.NewReplicatedCluster(flexcast.ReplicatedClusterConfig{
					Overlay:          ov,
					ReplicasPerGroup: replicas,
					InterRegionRTT:   80 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				const n = 20
				ids := make([]flexcast.MsgID, 0, n)
				for j := 0; j < n; j++ {
					id, err := cl.Multicast([]flexcast.GroupID{1, 2, 3}, []byte("x"))
					if err != nil {
						b.Fatal(err)
					}
					ids = append(ids, id)
				}
				// Advance virtual time until everything is delivered,
				// tracking how long that took in simulated time.
				deadline := 60 * time.Second
				step := 10 * time.Millisecond
				var elapsed time.Duration
				for elapsed < deadline {
					cl.Run(step)
					elapsed += step
					all := true
					for _, id := range ids {
						if !cl.Delivered(id) {
							all = false
							break
						}
					}
					if all {
						break
					}
				}
				for _, id := range ids {
					if !cl.Delivered(id) {
						b.Fatalf("message %s undelivered after %v virtual time", id, deadline)
					}
				}
				b.ReportMetric(float64(elapsed.Milliseconds()), "virtual-ms-total")
				cl.Close()
			}
		})
	}
}
