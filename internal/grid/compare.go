package grid

import (
	"fmt"
	"math"
	"strings"
)

// Default gate parameters: the noise band is
// max(IQRMult × max(IQRs), MinRel × |baseline median|). The relative
// floor absorbs cross-machine variance the repeats' IQR cannot see;
// the IQR term widens the band on genuinely noisy cells.
const (
	DefaultIQRMult = 3.0
	DefaultMinRel  = 0.10
)

// trackedMetrics is the default tracked set per cell kind — what the
// gate checks when the experiment declares no explicit metric list.
// Deliberately small: medians of the headline metrics, not every
// stage percentile (those remain in the summary for humans).
func trackedMetrics(kind string) []string {
	switch kind {
	case "simbench":
		return []string{"followerread_gate_ns_op", "followerread_serve_ns_op"}
	case "soak":
		return []string{"soak_disk_peak_bytes", "soak_snap_growth", "soak_heap_ratio"}
	case "sim":
		return []string{"throughput_tx_s", "dest1_p50_ms"}
	case "chaos":
		return nil // a violation fails the run; the counts are exact
	default:
		return []string{"throughput_tx_s", "latency_p50_us", "latency_p99_us"}
	}
}

// higherIsBetter classifies a metric's good direction: rates and
// counts of useful work go up, latencies / costs / footprints go
// down.
func higherIsBetter(metric string) bool {
	switch {
	case strings.HasSuffix(metric, "_tx_s"),
		metric == "completed", metric == "reads", metric == "tx_applied",
		metric == "avg_batch", strings.HasSuffix(metric, "_ops_s"):
		return true
	default:
		// _us/_ns latencies, _ns_op costs, _bytes footprints, ratios,
		// refusal/shed counts: lower is better.
		return false
	}
}

// Delta is one gated comparison: a tracked metric of one cell,
// baseline vs candidate.
type Delta struct {
	Cell   string  `json:"cell"`
	Metric string  `json:"metric"`
	Base   float64 `json:"base"`
	Cand   float64 `json:"cand"`
	// Rel is the signed relative change, positive in the metric's bad
	// direction (so 0.2 always reads "20% worse").
	Rel float64 `json:"rel"`
	// Band is the allowed noise band, as an absolute delta.
	Band float64 `json:"band"`
	// Regressed marks a change beyond the band in the bad direction.
	Regressed bool `json:"regressed"`
}

// Verdict is the regression gate's outcome over a whole summary pair.
type Verdict struct {
	OK          bool    `json:"ok"`
	Checked     int     `json:"checked"`
	Regressions []Delta `json:"regressions,omitempty"`
	// Improvements lists beyond-band moves in the good direction
	// (worth a look: they often mean the baseline is stale).
	Improvements []Delta `json:"improvements,omitempty"`
	// Missing lists baseline cells or tracked metrics absent from the
	// candidate — a silently shrunk grid must not pass the gate.
	Missing []string `json:"missing,omitempty"`
}

// Compare gates a candidate summary against a baseline: every tracked
// metric of every baseline cell must be present in the candidate and
// not regressed beyond its noise band. Cells only in the candidate
// (a grown grid) are fine; cells only in the baseline are not.
func Compare(base, cand *Summary) *Verdict {
	v := &Verdict{OK: true}
	for i := range base.Cells {
		bc := &base.Cells[i]
		cc := cand.Cell(bc.Name)
		if cc == nil {
			v.Missing = append(v.Missing, bc.Name)
			v.OK = false
			continue
		}
		gate := cc.Gate
		if gate == nil {
			gate = bc.Gate
		}
		iqrMult, minRel := DefaultIQRMult, DefaultMinRel
		metrics := trackedMetrics(bc.Kind)
		if gate != nil {
			if gate.IQRMult > 0 {
				iqrMult = gate.IQRMult
			}
			if gate.MinRel > 0 {
				minRel = gate.MinRel
			}
			if len(gate.Metrics) > 0 {
				metrics = gate.Metrics
			}
		}
		for _, key := range metrics {
			bm, ok := bc.Metrics[key]
			if !ok {
				// The baseline never measured it (e.g. a gate listing a
				// read metric on a cell without reads): nothing to hold
				// the candidate to.
				continue
			}
			cm, ok := cc.Metrics[key]
			if !ok {
				v.Missing = append(v.Missing, bc.Name+":"+key)
				v.OK = false
				continue
			}
			band := math.Max(iqrMult*math.Max(bm.IQR, cm.IQR), minRel*math.Abs(bm.Median))
			d := Delta{Cell: bc.Name, Metric: key, Base: bm.Median, Cand: cm.Median, Band: band}
			diff := cm.Median - bm.Median // positive = candidate larger
			bad := diff
			if higherIsBetter(key) {
				bad = -diff
			}
			if bm.Median != 0 {
				d.Rel = bad / math.Abs(bm.Median)
			}
			v.Checked++
			switch {
			case bad > band:
				d.Regressed = true
				v.Regressions = append(v.Regressions, d)
				v.OK = false
			case bad < -band:
				v.Improvements = append(v.Improvements, d)
			}
		}
	}
	return v
}

// Format renders the verdict for terminal output.
func (v *Verdict) Format() string {
	var b strings.Builder
	for _, d := range v.Regressions {
		fmt.Fprintf(&b, "REGRESSION %-46s %-22s %12.1f -> %12.1f (%+.1f%%, band ±%.1f)\n",
			d.Cell, d.Metric, d.Base, d.Cand, d.Rel*100, d.Band)
	}
	for _, d := range v.Improvements {
		fmt.Fprintf(&b, "improved   %-46s %-22s %12.1f -> %12.1f (%+.1f%%, band ±%.1f)\n",
			d.Cell, d.Metric, d.Base, d.Cand, -d.Rel*100, d.Band)
	}
	for _, m := range v.Missing {
		fmt.Fprintf(&b, "MISSING    %s (in baseline, absent from candidate)\n", m)
	}
	if v.OK {
		fmt.Fprintf(&b, "ok: %d tracked metrics within their noise bands (%d improved)\n",
			v.Checked, len(v.Improvements))
	} else {
		fmt.Fprintf(&b, "FAIL: %d regression(s), %d missing of %d tracked metrics\n",
			len(v.Regressions), len(v.Missing), v.Checked)
	}
	return b.String()
}
