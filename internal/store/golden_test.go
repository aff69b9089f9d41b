package store

import (
	"flag"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/prototest"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/snapshot.golden from this tree")

// TestSnapshotMatchesGolden pins the executor's record format byte for
// byte (the delta from the zero mark: the engine's body behind its
// length, the store's tables and watermark, then one instalment — the
// engine's behind its length and the order frames) — and, for the bare
// FlexCast stack, the engine's own. The cases are every stack of the
// delta gate: group 1 every 64 inputs of a seeded schedule, and every
// group once the schedule has drained.
func TestSnapshotMatchesGolden(t *testing.T) {
	var encs [][]byte
	for _, stack := range deltaStacks(t) {
		last := make(map[amcast.GroupID]amcast.DeltaEngine)
		inputs := 0
		runDeltaSchedule(stack, 1, 300, func(g amcast.GroupID, eng amcast.DeltaEngine) {
			last[g] = eng
			if inputs++; g == 1 && inputs%64 == 0 {
				encs = append(encs, marshalExec(t, eng))
			}
		})
		for _, g := range deltaGroups {
			encs = append(encs, marshalExec(t, last[g]))
		}
	}
	prototest.MatchGolden(t, "testdata/snapshot.golden", *updateGolden, encs)
}
