// Package grid is the declarative experiment grid runner behind
// cmd/flexgrid: it expands an experiments.json (axes × repeats) into
// cells, executes each cell in-process against internal/loadgen (or
// the sim microbenchmarks, soak checks, virtual-time WAN runs and fault
// explorations of the non-load kinds), and aggregates the repeats into
// a summary with per-cell medians, IQR noise bands and fig5/fig6-style
// curve tables.
// On top of the summary sit the trajectory layer (BENCH_history.jsonl,
// one line per grid run) and the regression gate (Compare), which CI
// runs against a committed baseline.
package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// SpecSchema tags the experiments.json format.
const SpecSchema = "flexgrid/experiments/v1"

// Spec is the experiments.json schema: a common parameter base, a
// default repeat count, and one Experiment per named grid, each
// expanding its axes into cells.
type Spec struct {
	Schema string `json:"schema"`
	// Repeats is the default number of repeats per cell (default 3).
	Repeats int `json:"repeats,omitempty"`
	// Common is the parameter base merged under every experiment's
	// config (experiment config wins, axis values win over both).
	Common map[string]any `json:"common,omitempty"`
	// Experiments are the grids; names must be unique.
	Experiments []Experiment `json:"experiments"`
}

// Experiment is one named grid: a parameter override set, the axes to
// sweep (cartesian product), and optionally a curve table to emit and
// a regression gate for Compare.
type Experiment struct {
	Name string `json:"name"`
	// Kind selects the cell runner: "load" (default, one
	// loadgen.Run per repeat), "simbench" (the FollowerRead sim
	// microbenchmark), "soak" (a durable run with disk-footprint and
	// heap-flatness assertions), "sim" (one protocol on the
	// virtual-time 12-region WAN: the paper's figures, see runSim) or
	// "chaos" (seeded fault exploration of one protocol, see runChaos).
	Kind string `json:"kind,omitempty"`
	// Repeats overrides the spec default for this experiment.
	Repeats int `json:"repeats,omitempty"`
	// Config overrides Common for every cell of the experiment.
	Config map[string]any `json:"config,omitempty"`
	// Axes maps parameter names to the values to sweep; cells are the
	// cartesian product in sorted-key order.
	Axes map[string][]any `json:"axes,omitempty"`
	// Curve, when set, emits a curve table from the experiment's cells
	// (fig5/fig6 style: Y against the X axis, one series per value of
	// the Series axis).
	Curve *CurveSpec `json:"curve,omitempty"`
	// Gate configures the regression gate for the experiment's cells;
	// nil cells are compared with the default gate.
	Gate *GateSpec `json:"gate,omitempty"`
	// Soak parameterizes kind "soak".
	Soak *SoakSpec `json:"soak,omitempty"`
}

// CurveSpec selects a fig5/fig6-style curve table: Y metrics plotted
// against the numeric X axis, one series per value of the Series axis
// (empty: a single series).
type CurveSpec struct {
	X      string   `json:"x"`
	Series string   `json:"series,omitempty"`
	Y      []string `json:"y"`
}

// GateSpec configures the regression gate of an experiment's cells.
// A candidate median fails against a baseline median when it moves in
// the metric's bad direction by more than the noise band
//
//	max(IQRMult × max(base IQR, cand IQR), MinRel × |base median|).
type GateSpec struct {
	// Metrics lists the tracked metric keys (default: the kind's
	// tracked set — see trackedMetrics).
	Metrics []string `json:"metrics,omitempty"`
	// IQRMult scales the repeats' IQR into the noise band (default 3).
	IQRMult float64 `json:"iqr_mult,omitempty"`
	// MinRel is the noise-band floor as a fraction of the baseline
	// median (default 0.10) — it absorbs machine-to-machine variance
	// the repeats' IQR cannot see.
	MinRel float64 `json:"min_rel,omitempty"`
}

// SoakSpec parameterizes a soak cell's assertions.
type SoakSpec struct {
	// DiskBoundFactor bounds peak on-disk footprint at
	// DiskBoundFactor × groups × (max snapshot + max WAL epoch bytes)
	// — the durable backend retains one snapshot plus one rotating WAL
	// epoch per group, so a factor of 3 (the default) allows rotation
	// transients while still failing on unbounded growth.
	DiskBoundFactor float64 `json:"disk_bound_factor,omitempty"`
	// MaxHeapRatio bounds the median heap of the run's second half
	// over its first half (default 1.6): a leak grows monotonically
	// and fails it, while a flat gauge passes with margin.
	MaxHeapRatio float64 `json:"max_heap_ratio,omitempty"`
	// SampleMs is the disk/heap sampling period (default 250).
	SampleMs int `json:"sample_ms,omitempty"`
}

// Cell is one expanded grid cell: an experiment with one concrete
// axis assignment.
type Cell struct {
	Experiment string
	Name       string // experiment name + "/" + axis assignment
	Kind       string
	Repeats    int
	// Params is the merged parameter set (common < config < axis).
	Params map[string]any
	// Axis is just this cell's axis assignment.
	Axis map[string]any
	Gate *GateSpec
	Soak *SoakSpec
}

// ParseSpec decodes and validates an experiments.json document.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("grid: parse spec: %w", err)
	}
	if s.Schema != SpecSchema {
		return nil, fmt.Errorf("grid: spec schema %q, want %q", s.Schema, SpecSchema)
	}
	if s.Repeats == 0 {
		s.Repeats = 3
	}
	if s.Repeats < 1 {
		return nil, fmt.Errorf("grid: repeats %d below 1", s.Repeats)
	}
	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("grid: no experiments")
	}
	seen := map[string]bool{}
	for i := range s.Experiments {
		e := &s.Experiments[i]
		if e.Name == "" {
			return nil, fmt.Errorf("grid: experiment %d has no name", i)
		}
		if strings.ContainsAny(e.Name, "/ \t") {
			return nil, fmt.Errorf("grid: experiment name %q contains a separator", e.Name)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("grid: duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		switch e.Kind {
		case "":
			e.Kind = "load"
		case "load", "simbench", "soak", "sim", "chaos":
		default:
			return nil, fmt.Errorf("grid: experiment %q: unknown kind %q", e.Name, e.Kind)
		}
		if e.Repeats == 0 {
			e.Repeats = s.Repeats
		}
		if e.Repeats < 1 {
			return nil, fmt.Errorf("grid: experiment %q: repeats %d below 1", e.Name, e.Repeats)
		}
		if e.Curve != nil {
			if e.Curve.X == "" || len(e.Curve.Y) == 0 {
				return nil, fmt.Errorf("grid: experiment %q: curve needs x and y", e.Name)
			}
			if _, ok := e.Axes[e.Curve.X]; !ok {
				return nil, fmt.Errorf("grid: experiment %q: curve x %q is not an axis", e.Name, e.Curve.X)
			}
			if e.Curve.Series != "" {
				if _, ok := e.Axes[e.Curve.Series]; !ok {
					return nil, fmt.Errorf("grid: experiment %q: curve series %q is not an axis", e.Name, e.Curve.Series)
				}
			}
		}
	}
	return &s, nil
}

// LoadSpec reads and parses an experiments.json file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(data)
}

// Cells expands every experiment's axes into the grid's cell list, in
// spec order (axes in sorted-key order, values in listed order).
func (s *Spec) Cells() ([]Cell, error) {
	var out []Cell
	for i := range s.Experiments {
		e := &s.Experiments[i]
		keys := make([]string, 0, len(e.Axes))
		for k := range e.Axes {
			if len(e.Axes[k]) == 0 {
				return nil, fmt.Errorf("grid: experiment %q: axis %q has no values", e.Name, k)
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		assigns := []map[string]any{{}}
		for _, k := range keys {
			var next []map[string]any
			for _, base := range assigns {
				for _, v := range e.Axes[k] {
					a := make(map[string]any, len(base)+1)
					for bk, bv := range base {
						a[bk] = bv
					}
					a[k] = v
					next = append(next, a)
				}
			}
			assigns = next
		}
		for _, axis := range assigns {
			params := map[string]any{}
			for k, v := range s.Common {
				params[k] = v
			}
			for k, v := range e.Config {
				params[k] = v
			}
			for k, v := range axis {
				params[k] = v
			}
			out = append(out, Cell{
				Experiment: e.Name,
				Name:       cellName(e.Name, keys, axis),
				Kind:       e.Kind,
				Repeats:    e.Repeats,
				Params:     params,
				Axis:       axis,
				Gate:       e.Gate,
				Soak:       e.Soak,
			})
		}
	}
	names := map[string]bool{}
	for _, c := range out {
		if names[c.Name] {
			return nil, fmt.Errorf("grid: duplicate cell %q", c.Name)
		}
		names[c.Name] = true
	}
	return out, nil
}

// cellName renders "experiment/axis1=v1,axis2=v2" (bare experiment
// name when there are no axes) — the stable key cells keep across
// summaries, history lines and baselines.
func cellName(exp string, keys []string, axis map[string]any) string {
	if len(keys) == 0 {
		return exp
	}
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, axis[k]))
	}
	return exp + "/" + strings.Join(parts, ",")
}
