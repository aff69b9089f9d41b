package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is an HDR-style latency histogram: values are bucketed into
// powers of two subdivided linearly, giving a bounded relative error of
// 1/subBuckets (≈1.6%) at any magnitude with fixed memory and O(1)
// recording. Unlike stats.Recorder — which keeps every sample and is the
// right tool for the paper's bounded 60-second experiment runs — the
// histogram sustains indefinite load (cmd/flexload) without growing, and
// its percentiles are computed exactly from the recorded counts rather
// than approximated from a mean and standard deviation.
//
// All methods are safe for concurrent use: Record is a single atomic
// add, and readers see a (possibly slightly stale but never torn)
// consistent-enough view for reporting.
type Histogram struct {
	counts [nBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	min    atomic.Uint64
	max    atomic.Uint64
}

const (
	// subBucketBits fixes the linear subdivision of each power of two:
	// 64 sub-buckets ⇒ at most 1/64 ≈ 1.6% relative error.
	subBucketBits = 6
	subBuckets    = 1 << subBucketBits
	// maxExp covers values up to 2^41-1 (≈25 days in microseconds).
	maxExp = 40
	// nBuckets: the linear range [0, 64) plus 64 sub-buckets per exponent
	// in [subBucketBits, maxExp].
	nBuckets = (maxExp - subBucketBits + 2) * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxUint64)
	return h
}

// bucketOf maps a value to its bucket index. Values < subBuckets land in
// the linear range one-to-one (exact); larger values are sliced into 64
// linear sub-buckets of their power-of-two range.
func bucketOf(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // v >= 64 ⇒ exp >= 6
	if exp > maxExp {
		exp = maxExp
		v = 1<<(maxExp+1) - 1
	}
	sub := int((v >> (uint(exp) - subBucketBits)) & (subBuckets - 1))
	return (exp-subBucketBits)*subBuckets + subBuckets + sub
}

// bucketHigh returns the largest value mapping to bucket i — the value
// reported for percentiles falling in that bucket, so reported
// percentiles never under-state latency.
func bucketHigh(i int) uint64 {
	if i < subBuckets {
		return uint64(i)
	}
	exp := uint(i/subBuckets-1) + subBucketBits
	sub := uint64(i % subBuckets)
	// Bucket i covers [(64+sub) << (exp-6), (64+sub+1) << (exp-6)).
	lo := (uint64(subBuckets) + sub) << (exp - subBucketBits)
	width := uint64(1) << (exp - subBucketBits)
	return lo + width - 1
}

// Record adds one value (typically a latency in microseconds). Negative
// durations are clamped to zero by the caller's conversion; Record
// itself accepts any uint64.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the arithmetic mean, or NaN when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return math.NaN()
	}
	return float64(h.sum.Load()) / float64(n)
}

// Min returns the smallest recorded value, or 0 when empty.
func (h *Histogram) Min() uint64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest recorded value, or 0 when empty.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Percentile returns the p-th percentile (0 < p <= 100) by nearest-rank
// over the bucket counts: the upper bound of the bucket containing the
// p-th ranked value (exact rank selection; value resolution bounded by
// the bucket width). Returns 0 when empty.
func (h *Histogram) Percentile(p float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i := 0; i < nBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			hi := bucketHigh(i)
			if m := h.max.Load(); hi > m {
				// The histogram never reports beyond the observed maximum.
				hi = m
			}
			return hi
		}
	}
	return h.max.Load()
}

// Merge adds other's counts into h. Safe for concurrent use with
// writers; the merge is not atomic as a whole, only per bucket.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := 0; i < nBuckets; i++ {
		if c := other.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	if other.count.Load() > 0 {
		for {
			cur := h.min.Load()
			v := other.min.Load()
			if v >= cur || h.min.CompareAndSwap(cur, v) {
				break
			}
		}
		for {
			cur := h.max.Load()
			v := other.max.Load()
			if v <= cur || h.max.CompareAndSwap(cur, v) {
				break
			}
		}
	}
}

// LatencySummary is a point-in-time percentile snapshot, the unit the
// benchmark subsystem reports and serializes (run artefacts).
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_us"`
	Min   uint64  `json:"min_us"`
	P50   uint64  `json:"p50_us"`
	P90   uint64  `json:"p90_us"`
	P99   uint64  `json:"p99_us"`
	P999  uint64  `json:"p999_us"`
	Max   uint64  `json:"max_us"`
}

// Summary snapshots the histogram's percentiles.
func (h *Histogram) Summary() LatencySummary {
	s := LatencySummary{
		Count: h.Count(),
		Min:   h.Min(),
		P50:   h.Percentile(50),
		P90:   h.Percentile(90),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.Max(),
	}
	if s.Count > 0 {
		s.Mean = h.Mean()
	}
	return s
}

// PercentileRow formats the 90th/95th/99th percentiles scaled by div,
// matching stats.Recorder.PercentileRow (milliseconds when the recorded
// values are microseconds and div is 1000).
func (h *Histogram) PercentileRow(div float64) string {
	if h.Count() == 0 {
		return "      -       -       -"
	}
	return fmt.Sprintf("%7.1f %7.1f %7.1f",
		float64(h.Percentile(90))/div, float64(h.Percentile(95))/div, float64(h.Percentile(99))/div)
}
