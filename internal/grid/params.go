package grid

import (
	"encoding/json"
	"fmt"

	"flexcast/internal/loadgen"
)

// simKnobs are the three cell parameters that are not load-run knobs:
// sim_ops sizes the simbench loops, fig5_scale and fig5_seeds size the
// fig5-verify sweep. Load and soak cells reject them.
type simKnobs struct {
	SimOps    int     `json:"sim_ops,omitempty"`
	Fig5Scale float64 `json:"fig5_scale,omitempty"`
	Fig5Seeds int     `json:"fig5_seeds,omitempty"`
}

// cellParams is a cell's decoded parameter set: a loadgen.Config under
// the keys of loadgen's knob table (unknown keys rejected, so a typo in
// an axis name fails the spec instead of silently sweeping nothing)
// plus the non-load knobs.
type cellParams struct {
	load loadgen.Config
	simKnobs
}

// decodeParams decodes a cell's merged parameter map for one repeat.
// Each repeat offsets the workload seed so repeats measure run-to-run
// variance over distinct (but reproducible) workloads, not the same
// RNG stream replayed.
func decodeParams(cell Cell, repeat int) (*cellParams, error) {
	var p cellParams
	load := make(map[string]any, len(cell.Params))
	for k, v := range cell.Params {
		var dst any
		switch k {
		case "sim_ops":
			dst = &p.SimOps
		case "fig5_scale":
			dst = &p.Fig5Scale
		case "fig5_seeds":
			dst = &p.Fig5Seeds
		default:
			load[k] = v
			continue
		}
		if err := remarshal(v, dst); err != nil {
			return nil, fmt.Errorf("grid: cell %s: parameter %q: %w", cell.Name, k, err)
		}
	}
	if err := remarshal(load, &p.load); err != nil {
		return nil, fmt.Errorf("grid: cell %s: %w", cell.Name, err)
	}
	if p.load.Seed == 0 {
		p.load.Seed = 1
	}
	p.load.Seed += int64(repeat) * 7919
	return &p, nil
}

// remarshal decodes an already-parsed JSON value into a typed target.
func remarshal(v, dst any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, dst)
}
