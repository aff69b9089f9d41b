// Latency-targeted adaptive batching (DESIGN.md §1h). The static -batch
// cap picks one point on the latency/throughput curve at configuration
// time; the controller moves along that curve at
// runtime instead. Each node tracks an effective (batch, interval)
// operating point between a floor (per-envelope, prompt flushes) and
// the configured ceiling (the static values), steered by the inbound
// queue depth the telemetry layer already samples: deep queues mean the
// node is throughput-bound and amortization pays, a shallow queue means
// every microsecond of parked batch is pure added latency.
//
// The controller is a pure state machine — Tick(queueDepth) in,
// (batch, interval) out — with no clock and no goroutine of its own, so
// the unit tests drive it with synthetic depth series and assert
// convergence and stability exactly. The adaptive node's flush loop
// provides the cadence in production: every timer fire is one tick, and the
// interval the controller returns is the time until the next tick.
//
// Protocol safety is free: the operating point only changes chunk
// boundaries and flush timing, never envelope contents or per-link
// order, so a controller trajectory is indistinguishable from one more
// arrival interleaving — exactly what the chunked-equivalence tests
// (internal/prototest) randomize over.
package runtime

import "time"

// AdaptiveConfig bounds the batching controller. The zero value of any
// field takes its default; the ceiling fields default to the node's
// static MaxBatch/FlushInterval, making the static knobs the upper
// bound of the adaptive range rather than the operating point.
type AdaptiveConfig struct {
	// MinBatch is the effective-batch floor (default 1: per-envelope).
	MinBatch int
	// MaxBatch is the ceiling (default: the node Config's MaxBatch).
	MaxBatch int
	// MinInterval is the flush-interval floor, used when the node is
	// latency-bound (default 50µs).
	MinInterval time.Duration
	// MaxInterval is the ceiling (default: the node Config's
	// FlushInterval).
	MaxInterval time.Duration
	// LowWater / HighWater bound the hysteresis band in units of queue
	// occupancy relative to the current batch (depth ÷ batch): below
	// LowWater the controller halves the batch, above HighWater it
	// doubles it, in between it holds. HighWater must be at least
	// 2×LowWater or a single halving could overshoot past the opposite
	// threshold and oscillate; fill clamps it. Defaults 0.5 / 2.0.
	LowWater  float64
	HighWater float64
}

func (c *AdaptiveConfig) fill(maxBatch int, maxInterval time.Duration) {
	if c.MinBatch <= 0 {
		c.MinBatch = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = maxBatch
	}
	if c.MaxBatch < c.MinBatch {
		c.MaxBatch = c.MinBatch
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 50 * time.Microsecond
	}
	if c.MaxInterval <= 0 {
		c.MaxInterval = maxInterval
	}
	if c.MaxInterval < c.MinInterval {
		c.MaxInterval = c.MinInterval
	}
	if c.LowWater <= 0 {
		c.LowWater = 0.5
	}
	if c.HighWater <= 0 {
		c.HighWater = 2.0
	}
	if c.HighWater < 2*c.LowWater {
		c.HighWater = 2 * c.LowWater
	}
}

// BatchController is the per-node adaptive batching state machine. Not
// goroutine-safe: the owner (the node's flush loop, or a test) calls
// Tick from one goroutine and publishes the result itself.
type BatchController struct {
	cfg   AdaptiveConfig
	batch int
}

// NewBatchController builds a controller at the latency-first floor
// (MinBatch): an idle or lightly loaded node starts with prompt
// flushes and earns amortization only when the queue shows demand.
// cfg must already be filled.
func NewBatchController(cfg AdaptiveConfig) *BatchController {
	cfg.fill(cfg.MaxBatch, cfg.MaxInterval)
	return &BatchController{cfg: cfg, batch: cfg.MinBatch}
}

// Tick feeds one queue-depth sample and returns the new operating
// point. Multiplicative increase/decrease with a hysteresis band:
// occupancy (depth ÷ current batch) above HighWater doubles the batch,
// below LowWater halves it, inside the band holds. Doubling and
// halving move occupancy by exactly 2×, and the band is at least 2×
// wide (fill enforces HighWater ≥ 2·LowWater), so one step from
// outside the band lands inside or on the same side — never across —
// and a steady input can never oscillate. Convergence from any start
// to any steady depth takes at most log2(MaxBatch/MinBatch) ticks.
func (c *BatchController) Tick(queueDepth int) (batch int, interval time.Duration) {
	occ := float64(queueDepth) / float64(c.batch)
	switch {
	case occ > c.cfg.HighWater:
		c.batch *= 2
		if c.batch > c.cfg.MaxBatch {
			c.batch = c.cfg.MaxBatch
		}
	case occ < c.cfg.LowWater:
		c.batch /= 2
		if c.batch < c.cfg.MinBatch {
			c.batch = c.cfg.MinBatch
		}
	}
	return c.batch, c.interval()
}

// Operating returns the current point without advancing the controller.
func (c *BatchController) Operating() (batch int, interval time.Duration) {
	return c.batch, c.interval()
}

// interval maps the batch linearly onto [MinInterval, MaxInterval]: at
// the floor the flush timer fires fast (a parked batch waits at most
// MinInterval), at the ceiling it relaxes to the configured safety-net
// cadence — under sustained load flushes are fill- and chunk-driven
// anyway, so a slow timer there costs nothing.
func (c *BatchController) interval() time.Duration {
	lo, hi := c.cfg.MinInterval, c.cfg.MaxInterval
	if c.cfg.MaxBatch == c.cfg.MinBatch {
		return hi
	}
	frac := float64(c.batch-c.cfg.MinBatch) / float64(c.cfg.MaxBatch-c.cfg.MinBatch)
	return lo + time.Duration(frac*float64(hi-lo))
}
