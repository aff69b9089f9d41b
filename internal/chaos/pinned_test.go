package chaos_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/chaos"
	"flexcast/internal/deploy"
)

// deliveryDigest hashes every group's delivery sequence, in group order.
func deliveryDigest(res *chaos.ScheduleResult, groups []amcast.GroupID) string {
	h := sha256.New()
	for _, g := range groups {
		ids := res.Trace.Sequence(g)
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(g)<<32|uint64(len(ids))))
		for _, id := range ids {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(id)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// counts builds a pinned Counts, its fault counts last.
func counts(multicasts, deliveries, fastReads, refusals int, events uint64, retransmits, duplicates, partitionHits, crashes, parked, tornTails int) chaos.Counts {
	return chaos.Counts{Multicasts: multicasts, Deliveries: deliveries, FastReads: fastReads, LeaseRefusals: refusals, Events: events,
		Faults: chaos.FaultStats{Retransmits: retransmits, Duplicates: duplicates, PartitionHits: partitionHits, Crashes: crashes, Parked: parked, TornTails: tornTails}}
}

// TestSchedulesPinned pins faulted schedules from one commit to the
// next: every count a schedule reports (its faults included) and a
// digest of what each group delivered, in order. Every fault class is
// on, crashes with and without a torn WAL tail among them; the execute
// schedule adds fast reads and lease refusals. Any change to what the
// simulated host steps, sends or recovers, or to what the injector
// draws, moves them; a change meant to alter a schedule re-takes them.
func TestSchedulesPinned(t *testing.T) {
	execute, err := chaos.NewDeployment(deploy.Spec{Protocol: deploy.FlexCast}, true)
	if err != nil {
		t.Fatal(err)
	}
	faulted := chaos.Options{Crashes: 3}
	runs := []struct {
		name   string
		d      chaos.Deployment
		opt    chaos.Options
		seed   int64
		counts chaos.Counts
		digest string
	}{
		{"flexcast/1", flexDeployment(groups5), faulted, 1,
			counts(35, 108, 0, 0, 381, 29, 2, 4, 3, 15, 2), "21a58d9e9a4863b5bf66a60a6dfc40bb13b0057a10821871808c2e2588285ce8"},
		{"flexcast/2", flexDeployment(groups5), faulted, 2,
			counts(35, 121, 0, 0, 430, 23, 6, 0, 3, 35, 0), "c64b752b22533c672fb0d419301cab14d0a6f880fd435f9b698b5df5573bffd0"},
		{"skeen/1", skeenDeployment(groups5), faulted, 1,
			counts(35, 108, 0, 0, 564, 28, 9, 4, 3, 21, 2), "f45e96288f06098febedf9516dec626fcad7badef2d6352fee500444696af908"},
		{"skeen/2", skeenDeployment(groups5), faulted, 2,
			counts(35, 121, 0, 0, 663, 35, 12, 5, 3, 42, 0), "4d01504fad3b3153424b36392e7bc5c57a99e55b0701351c6a5fc329e49bf319"},
		{"hierarchical/1", treeDeployment(), faulted, 1,
			counts(35, 108, 0, 0, 274, 15, 4, 3, 3, 8, 2), "9e7335484488c8f04e52f55ad5b8e5a46f988194919843d0c2222f2b95af48db"},
		{"hierarchical/2", treeDeployment(), faulted, 2,
			counts(35, 121, 0, 0, 298, 20, 6, 0, 3, 11, 0), "f815857e67379dda46c893557c2ebaf1b7b5f2819091a4ba87f9c82d7b2145f7"},
		{"execute", execute, chaos.Options{ClosedLoop: true, FastReadProb: 1, Crashes: 3, Partitions: 4}, 3,
			counts(40, 154, 36, 2, 903, 32, 25, 1, 3, 0, 2), "35800bec5da0f726d7acf60d70bc692981fc8422895d1ec7d87dbca7747c2234"},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			res, err := chaos.RunSchedule(r.d, r.opt, r.seed)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("violation: %v", res.Err)
			}
			if digest := deliveryDigest(res, r.d.Groups); res.Counts != r.counts || digest != r.digest {
				t.Fatalf("got %+v, %s; pinned %+v, %s", res.Counts, digest, r.counts, r.digest)
			}
		})
	}
}
