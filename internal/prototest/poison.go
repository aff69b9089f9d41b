package prototest

import (
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"flexcast/amcast"
)

// Poison overwrites an envelope slice with garbage: replies nobody is
// waiting for, from a group that never sent them, with an impossible
// watermark. It is what a lender does to a lent slice the moment the
// borrower's call returns (SendBatchFunc, BatchHandler, BatchStep), so
// a borrower that kept the slice instead of copying loses its envelopes
// — a failed audit, a timeout or a race report — instead of working by
// luck until the buffer is refilled.
func Poison(envs []amcast.Envelope) {
	const nobody = amcast.GroupID(1<<20 - 1) // the largest id that is still a group
	for i := range envs {
		envs[i] = amcast.Envelope{
			Kind: amcast.KindReply, From: amcast.GroupNode(nobody), Result: amcast.ResultAborted,
			Msg: amcast.Message{ID: math.MaxUint64 - amcast.MsgID(i), Dst: []amcast.GroupID{nobody}, Payload: []byte("poison")},
			TS:  math.MaxUint64, Watermark: math.MaxUint64,
		}
	}
}

// PoisonLoans makes the given lenders (runtime.Scrub, transport.Scrub)
// poison instead of zeroing for the rest of the test.
func PoisonLoans(t *testing.T, scrubs ...*func([]amcast.Envelope)) {
	for _, s := range scrubs {
		s, prev := s, *s
		*s = Poison
		t.Cleanup(func() { *s = prev })
	}
}

// RaceEnabled reports whether the test binary was built with -race:
// allocation budgets (testing.AllocsPerRun) are only meaningful without
// it, and exhaustive per-step comparisons thin out under its slowdown.
func RaceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
