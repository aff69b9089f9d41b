package grid

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"time"

	"flexcast/internal/loadgen"
)

// Options parameterizes one grid execution.
type Options struct {
	// OutDir receives one raw JSON per run (<cell>-r<k>.json); empty
	// disables raw artifacts.
	OutDir string
	// Log receives progress lines (nil: quiet).
	Log io.Writer
	// Filter restricts execution to cells whose name matches (nil:
	// the whole grid).
	Filter *regexp.Regexp
	// Spec labels the summary with the config file it came from.
	Spec string
}

// rawRun is the per-run artifact, one repeat of one cell: loadgen's
// Artefact — for load and soak cells exactly what flexload -out writes
// for the same parameters — plus the non-load kinds' own knobs (their
// Params is the cell's load-knob subset as written, and they carry no
// Result).
type rawRun struct {
	loadgen.Artefact
	simKnobs
}

// RunSpec executes every cell of the spec (repeats included) and
// aggregates the runs into a summary. Cell kinds that assert (soak,
// sim with verify) fail the whole run on violation — a grid that published numbers
// past a failed assertion would be a different benchmark.
func RunSpec(spec *Spec, opt Options) (*Summary, error) {
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	if opt.Filter != nil {
		var kept []Cell
		for _, c := range cells {
			if opt.Filter.MatchString(c.Name) {
				kept = append(kept, c)
			}
		}
		cells = kept
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("grid: no cells to run")
	}
	if opt.OutDir != "" {
		if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
			return nil, err
		}
	}
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format, args...)
		}
	}

	summary := &Summary{
		Schema: Schema,
		Commit: gitCommit(),
		Date:   time.Now().UTC().Format(time.RFC3339),
		Spec:   opt.Spec,
		Host: map[string]any{
			"go":         runtime.Version(),
			"os":         runtime.GOOS,
			"arch":       runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
		},
	}
	start := time.Now()
	for ci, cell := range cells {
		repeats := make([]map[string]float64, 0, cell.Repeats)
		for rep := 0; rep < cell.Repeats; rep++ {
			runStart := time.Now()
			raw, err := runCell(cell, rep)
			if err != nil {
				return nil, fmt.Errorf("grid: cell %s repeat %d: %w", cell.Name, rep, err)
			}
			repeats = append(repeats, raw.Metrics)
			logf("[%d/%d] %s r%d: %s  (%.1fs)\n", ci+1, len(cells), cell.Name, rep,
				headline(cell.Kind, raw.Metrics), time.Since(runStart).Seconds())
			if opt.OutDir != "" {
				data, err := json.MarshalIndent(raw, "", "  ")
				if err != nil {
					return nil, err
				}
				path := filepath.Join(opt.OutDir, rawName(cell.Name, rep))
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					return nil, err
				}
			}
		}
		summary.Cells = append(summary.Cells, aggregate(cell, repeats))
	}
	curves, err := buildCurves(spec, summary.Cells)
	if err != nil {
		return nil, err
	}
	summary.Curves = curves
	if err := summary.Validate(); err != nil {
		return nil, fmt.Errorf("grid: produced an invalid summary: %w", err)
	}
	logf("grid complete: %d cells in %.1fs\n", len(cells), time.Since(start).Seconds())
	return summary, nil
}

// runCell executes one repeat of one cell by kind. Load and soak cells
// go through loadgen.RunArtefact, so a result that fails Result.Validate
// fails the cell — and with it the grid run — before any number of it is
// aggregated.
func runCell(cell Cell, repeat int) (*rawRun, error) {
	p, err := decodeParams(cell, repeat)
	if err != nil {
		return nil, err
	}
	raw := &rawRun{Artefact: loadgen.Artefact{Params: p.load}, simKnobs: p.simKnobs}
	switch cell.Kind {
	case "simbench":
		raw.Metrics, err = runSimbench(cell.Name, p)
	case "sim":
		raw.Metrics, err = runSim(cell.Name, p)
	default:
		if p.simKnobs != (simKnobs{}) {
			return nil, fmt.Errorf("grid: sim_ops is a simbench parameter; overlay, proc_cost_us, proc_cost_us_per_kb and verify are sim parameters")
		}
		var art *loadgen.Artefact
		if cell.Kind == "soak" {
			art, err = runSoak(cell, p.load)
		} else {
			art, err = loadgen.RunArtefact(p.load)
		}
		if err != nil {
			return nil, err
		}
		raw.Artefact = *art
	}
	if err != nil {
		return nil, err
	}
	raw.Cell, raw.Kind, raw.Repeat = cell.Name, cell.Kind, repeat
	return raw, nil
}

// headline picks the one-line progress figure per kind.
func headline(kind string, m map[string]float64) string {
	switch kind {
	case "simbench":
		return fmt.Sprintf("gate %.0f ns/op, serve %.0f ns/op", m["followerread_gate_ns_op"], m["followerread_serve_ns_op"])
	case "soak":
		return fmt.Sprintf("%.0f tx/s, disk peak %.0f/%.0f bytes, journal %.0f bytes, snapshot growth %.2f, heap ratio %.2f",
			m["throughput_tx_s"], m["soak_disk_peak_bytes"], m["soak_disk_bound_bytes"], m["soak_journal_bytes"], m["soak_snap_growth"], m["soak_heap_ratio"])
	case "sim":
		return fmt.Sprintf("%.0f tx/s, 1st destination p50 %.1f ms", m["throughput_tx_s"], m["dest1_p50_ms"])
	default:
		return fmt.Sprintf("%.0f tx/s, p50 %.0f µs", m["throughput_tx_s"], m["latency_p50_us"])
	}
}

// rawName renders a cell's raw-artifact filename: the cell name with
// path-hostile characters flattened.
func rawName(cell string, repeat int) string {
	r := strings.NewReplacer("/", "__", ",", "_", "=", "-")
	return fmt.Sprintf("%s-r%d.json", r.Replace(cell), repeat)
}

// gitCommit stamps summaries with the working tree's commit (short
// hash, "-dirty" suffixed when a tracked file is modified — what a run
// writes is untracked and does not count); "unknown" outside a
// repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}
