package grid

import (
	"encoding/json"
	"fmt"

	"flexcast/internal/loadgen"
)

// simKnobs are the cell parameters that are not load-run knobs: sim_ops
// sizes the simbench loops; the other four each set one chaos.Options
// field or the overlay of a sim cell (runSim). Load and soak cells reject them.
type simKnobs struct {
	SimOps int `json:"sim_ops,omitempty"`
	// Overlay names one of the paper's overlays: o1 or o2 (FlexCast's
	// C-DAGs), t1, t2 or t3 (the hierarchical trees). Empty: O1 / T1.
	Overlay string `json:"overlay,omitempty"`
	// ProcCostUs and ProcCostUsPerKB model server capacity as a serial
	// per-envelope cost (µs, and µs per KiB of envelope); 0 models
	// infinitely fast servers, the latency experiments' setting.
	ProcCostUs      int64   `json:"proc_cost_us,omitempty"`
	ProcCostUsPerKB float64 `json:"proc_cost_us_per_kb,omitempty"`
	// Verify records the run and checks the §2.2 multicast properties
	// after draining it; a violation fails the cell.
	Verify bool `json:"verify,omitempty"`
}

var simKeys = map[string]bool{
	"sim_ops": true, "overlay": true, "proc_cost_us": true, "proc_cost_us_per_kb": true, "verify": true,
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
	load, sim := map[string]any{}, map[string]any{}
	for k, v := range cell.Params {
		if simKeys[k] {
			sim[k] = v
		} else {
			load[k] = v
		}
	}
	if err := remarshal(sim, &p.simKnobs); err != nil {
		return nil, fmt.Errorf("grid: cell %s: %w", cell.Name, err)
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
