package loadgen

import (
	"time"

	"flexcast/internal/runtime"
)

// SLOPoint is one sample of the queue-depth trajectory: the inbound
// queue depth of the deepest-queued node at TMs milliseconds into the
// measurement window.
type SLOPoint struct {
	TMs        int64 `json:"t_ms"`
	QueueDepth int   `json:"queue_depth"`
}

// SLOResult is the tail-latency service-level report (-slo-ms): how
// much of the measured window's completed work met the latency target,
// at what shed rate, and how deep the servers' queues stood meanwhile.
// Goodput — throughput counting only completions within the target —
// is the section's headline: it is the number that gets WORSE when a
// system buys throughput with tail latency, which plain throughput
// cannot show.
type SLOResult struct {
	// TargetMs is the latency target the section is scored against.
	TargetMs float64 `json:"target_ms"`
	// GoodCompleted counts window completions with latency <= target;
	// Goodput is their rate. Shed transactions never complete, so they
	// are excluded by construction.
	GoodCompleted uint64  `json:"good_completed"`
	Goodput       float64 `json:"goodput_tx_s"`
	// GoodFraction is GoodCompleted over all window completions.
	GoodFraction float64 `json:"good_fraction"`
	// ShedRate is shed over offered (issued + shed): the fraction of the
	// window's offered load the admission gates refused.
	ShedRate float64 `json:"shed_rate"`
	// Sessions echoes the multiplexed session count (0: process-level
	// admission, the legacy -max-outstanding cap).
	Sessions int `json:"sessions,omitempty"`
	// Trajectory samples the deepest queue over the window.
	Trajectory []SLOPoint `json:"trajectory,omitempty"`
}

// buildSLO scores one window against a latency target. It is pure —
// counters in, section out — so the verdict on a synthetic trace with
// known goodput is testable without running a deployment.
func buildSLO(targetMs float64, good, completed, issued, shed uint64, windowSecs float64, traj []SLOPoint) *SLOResult {
	s := &SLOResult{
		TargetMs:      targetMs,
		GoodCompleted: good,
		Trajectory:    traj,
	}
	if windowSecs > 0 {
		s.Goodput = float64(good) / windowSecs
	}
	if completed > 0 {
		s.GoodFraction = float64(good) / float64(completed)
	}
	if offered := issued + shed; offered > 0 {
		s.ShedRate = float64(shed) / float64(offered)
	}
	return s
}

// trajectoryEvery is the trajectory sampling period: coarse
// enough to be free, fine enough that a 5s window yields ~100 points.
const trajectoryEvery = 50 * time.Millisecond

// sampleTrajectory records the deepest inbound queue of nodes every
// trajectoryEvery until stop closes, then delivers the samples on out.
// Under skewed load (an LCA hot spot) the deepest queue is the node
// that saturates first.
func sampleTrajectory(nodes []*runtime.Node, start time.Time, stop <-chan struct{}, out chan<- []SLOPoint) {
	var points []SLOPoint
	t := time.NewTicker(trajectoryEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			out <- points
			return
		case now := <-t.C:
			depth := 0
			for _, n := range nodes {
				depth = max(depth, n.QueueLen())
			}
			points = append(points, SLOPoint{TMs: now.Sub(start).Milliseconds(), QueueDepth: depth})
		}
	}
}
