package grid

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"

	"flexcast/internal/stats"
)

// Schema tags the aggregated grid summary format.
const Schema = "flexgrid/v1"

// MetricSummary aggregates one metric over a cell's repeats: the
// interpolated median, the interquartile range (the noise band the
// regression gate scales), and the observed extremes.
type MetricSummary struct {
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// CellSummary is one cell's aggregate: its identity (experiment, axis
// assignment), the gate it is compared under, and every metric's
// summary across repeats.
type CellSummary struct {
	Name       string                   `json:"name"`
	Experiment string                   `json:"experiment"`
	Kind       string                   `json:"kind"`
	Axis       map[string]any           `json:"axis,omitempty"`
	Repeats    int                      `json:"repeats"`
	Gate       *GateSpec                `json:"gate,omitempty"`
	Metrics    map[string]MetricSummary `json:"metrics"`
}

// CurvePoint is one point of a curve series: the numeric X axis
// value, the Y metric's median and its IQR.
type CurvePoint struct {
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	IQR  float64 `json:"iqr"`
	N    int     `json:"n"`
	Cell string  `json:"cell"`
}

// CurveSeries is one line of a curve table (one value of the series
// axis), points sorted by X.
type CurveSeries struct {
	Label  string       `json:"label,omitempty"`
	Points []CurvePoint `json:"points"`
}

// CurveTable is a fig5/fig6-style table: one Y metric against the X
// axis, one series per series-axis value.
type CurveTable struct {
	Experiment string        `json:"experiment"`
	X          string        `json:"x"`
	Y          string        `json:"y"`
	Series     []CurveSeries `json:"series"`
}

// Summary is one grid run's aggregate: provenance, every cell's
// metric summaries, and the curve tables the spec requested.
type Summary struct {
	Schema string         `json:"schema"`
	Commit string         `json:"commit,omitempty"`
	Date   string         `json:"date,omitempty"`
	Spec   string         `json:"spec,omitempty"`
	Host   map[string]any `json:"host,omitempty"`
	Cells  []CellSummary  `json:"cells"`
	Curves []CurveTable   `json:"curves,omitempty"`
}

// aggregate folds the repeats' metric maps into one cell summary.
// Metrics missing from some repeats (a stage that recorded no sample
// in one run) aggregate over the repeats that have them.
func aggregate(cell Cell, repeats []map[string]float64) CellSummary {
	byKey := map[string][]float64{}
	for _, rm := range repeats {
		for k, v := range rm {
			byKey[k] = append(byKey[k], v)
		}
	}
	out := CellSummary{
		Name:       cell.Name,
		Experiment: cell.Experiment,
		Kind:       cell.Kind,
		Axis:       cell.Axis,
		Repeats:    len(repeats),
		Gate:       cell.Gate,
		Metrics:    make(map[string]MetricSummary, len(byKey)),
	}
	for k, xs := range byKey {
		q1, q2, q3 := stats.Quartiles(xs)
		out.Metrics[k] = MetricSummary{
			Median: q2,
			IQR:    q3 - q1,
			Min:    xs[minIdx(xs)],
			Max:    xs[maxIdx(xs)],
			N:      len(xs),
		}
	}
	return out
}

func minIdx(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v < xs[best] {
			best = i
		}
	}
	return best
}

func maxIdx(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// axisFloat renders an axis value as the numeric X of a curve point.
func axisFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	case string:
		f, err := strconv.ParseFloat(x, 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// buildCurves assembles the spec's curve tables from the aggregated
// cells.
func buildCurves(spec *Spec, cells []CellSummary) ([]CurveTable, error) {
	byExp := map[string][]CellSummary{}
	for _, c := range cells {
		byExp[c.Experiment] = append(byExp[c.Experiment], c)
	}
	var out []CurveTable
	for _, e := range spec.Experiments {
		if e.Curve == nil || len(byExp[e.Name]) == 0 {
			continue // no curve asked for, or -cells filtered the experiment out
		}
		for _, y := range e.Curve.Y {
			tbl := CurveTable{Experiment: e.Name, X: e.Curve.X, Y: y}
			series := map[string][]CurvePoint{}
			var labels []string
			for _, c := range byExp[e.Name] {
				x, ok := axisFloat(c.Axis[e.Curve.X])
				if !ok {
					return nil, fmt.Errorf("grid: experiment %q: curve x axis %q has non-numeric value %v",
						e.Name, e.Curve.X, c.Axis[e.Curve.X])
				}
				ms, ok := c.Metrics[y]
				if !ok {
					return nil, fmt.Errorf("grid: experiment %q: cell %s has no metric %q for its curve",
						e.Name, c.Name, y)
				}
				label := ""
				if e.Curve.Series != "" {
					label = fmt.Sprintf("%v", c.Axis[e.Curve.Series])
				}
				if _, seen := series[label]; !seen {
					labels = append(labels, label)
				}
				series[label] = append(series[label], CurvePoint{
					X: x, Y: ms.Median, IQR: ms.IQR, N: ms.N, Cell: c.Name,
				})
			}
			sort.Strings(labels)
			for _, label := range labels {
				pts := series[label]
				sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
				tbl.Series = append(tbl.Series, CurveSeries{Label: label, Points: pts})
			}
			out = append(out, tbl)
		}
	}
	return out, nil
}

// WriteFile writes the summary as indented JSON, validating first.
func (s *Summary) WriteFile(path string) error {
	if err := s.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadSummary reads and validates a summary file.
func LoadSummary(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("grid: parse summary %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("grid: %s: %w", path, err)
	}
	return &s, nil
}

// Validate checks a summary's internal consistency: schema tag, at
// least one cell, unique cell names, finite metric values, coherent
// quartile bounds, and every load cell carrying the core write-path
// metrics (throughput and p50) the trajectory is built on.
func (s *Summary) Validate() error {
	if s.Schema != Schema {
		return fmt.Errorf("summary schema %q, want %q", s.Schema, Schema)
	}
	if len(s.Cells) == 0 {
		return fmt.Errorf("summary has no cells")
	}
	names := map[string]bool{}
	for _, c := range s.Cells {
		if c.Name == "" {
			return fmt.Errorf("cell with empty name")
		}
		if names[c.Name] {
			return fmt.Errorf("duplicate cell %q", c.Name)
		}
		names[c.Name] = true
		if c.Repeats < 1 {
			return fmt.Errorf("cell %s: %d repeats", c.Name, c.Repeats)
		}
		if len(c.Metrics) == 0 {
			return fmt.Errorf("cell %s has no metrics", c.Name)
		}
		for k, m := range c.Metrics {
			for what, v := range map[string]float64{"median": m.Median, "iqr": m.IQR, "min": m.Min, "max": m.Max} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("cell %s metric %s: non-finite %s", c.Name, k, what)
				}
			}
			if m.N < 1 || m.N > c.Repeats {
				return fmt.Errorf("cell %s metric %s: n=%d outside [1, %d]", c.Name, k, m.N, c.Repeats)
			}
			if m.IQR < 0 || m.Min > m.Max || m.Median < m.Min || m.Median > m.Max {
				return fmt.Errorf("cell %s metric %s: incoherent summary %+v", c.Name, k, m)
			}
		}
		if c.Kind == "load" {
			for _, want := range []string{"throughput_tx_s", "latency_p50_us"} {
				ms, ok := c.Metrics[want]
				if !ok {
					return fmt.Errorf("load cell %s missing %s", c.Name, want)
				}
				// Latency is recorded in truncated µs, so a sub-µs p50
				// reads 0; only throughput must be positive.
				if ms.Median < 0 || (ms.Median == 0 && want == "throughput_tx_s") {
					return fmt.Errorf("load cell %s: %s median %v out of range", c.Name, want, ms.Median)
				}
			}
		}
	}
	for _, tbl := range s.Curves {
		if len(tbl.Series) == 0 {
			return fmt.Errorf("curve %s/%s has no series", tbl.Experiment, tbl.Y)
		}
		for _, sr := range tbl.Series {
			if len(sr.Points) == 0 {
				return fmt.Errorf("curve %s/%s series %q has no points", tbl.Experiment, tbl.Y, sr.Label)
			}
			for _, p := range sr.Points {
				if !names[p.Cell] {
					return fmt.Errorf("curve %s/%s references unknown cell %q", tbl.Experiment, tbl.Y, p.Cell)
				}
			}
		}
	}
	return nil
}

// Cell returns the named cell summary, or nil.
func (s *Summary) Cell(name string) *CellSummary {
	for i := range s.Cells {
		if s.Cells[i].Name == name {
			return &s.Cells[i]
		}
	}
	return nil
}
