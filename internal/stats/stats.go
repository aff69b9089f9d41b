// Package stats provides the latency statistics the paper reports:
// percentiles (Tables 2 and 3) and mean/standard deviation (Table 4).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Recorder accumulates samples (latencies in microseconds, overheads, …).
// The zero value is ready to use.
type Recorder struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (r *Recorder) Add(v float64) {
	r.samples = append(r.samples, v)
	r.sorted = false
}

// Len returns the number of samples.
func (r *Recorder) Len() int { return len(r.samples) }

func (r *Recorder) sort() {
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using nearest-rank
// on the sorted samples. It returns NaN when empty.
func (r *Recorder) Percentile(p float64) float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	r.sort()
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.samples) {
		rank = len(r.samples)
	}
	return r.samples[rank-1]
}

// Mean returns the arithmetic mean, or NaN when empty.
func (r *Recorder) Mean() float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range r.samples {
		sum += v
	}
	return sum / float64(len(r.samples))
}

// Std returns the population standard deviation, or NaN when empty.
func (r *Recorder) Std() float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	m := r.Mean()
	sum := 0.0
	for _, v := range r.samples {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(r.samples)))
}

// Max returns the largest sample, or NaN when empty.
func (r *Recorder) Max() float64 {
	if len(r.samples) == 0 {
		return math.NaN()
	}
	r.sort()
	return r.samples[len(r.samples)-1]
}

// PercentileRow formats the 90th/95th/99th percentiles scaled by div —
// the row format of the paper's Tables 2 and 3 (milliseconds when the
// samples are microseconds and div is 1000).
func (r *Recorder) PercentileRow(div float64) string {
	if r.Len() == 0 {
		return "      -       -       -"
	}
	return fmt.Sprintf("%7.1f %7.1f %7.1f",
		r.Percentile(90)/div, r.Percentile(95)/div, r.Percentile(99)/div)
}
