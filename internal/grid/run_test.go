package grid

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flexcast/internal/loadgen"
)

// TestRunSpecEndToEnd drives a tiny real grid — 2 load cells × 2
// repeats plus one simbench cell — through RunSpec and checks the
// summary, raw artifacts, curves, history line and self-compare.
func TestRunSpecEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real load grid")
	}
	spec := testSpec(t, `{
		"schema": "flexgrid/experiments/v1",
		"repeats": 2,
		"common": {"groups": 3, "clients": 1, "workers": 4,
		           "warmup_ms": 100, "duration_ms": 300, "timeout_ms": 60000},
		"experiments": [
			{"name": "e2e",
			 "axes": {"batch": [1, 64]},
			 "curve": {"x": "batch", "y": ["throughput_tx_s"]}},
			{"name": "micro", "kind": "simbench", "repeats": 1,
			 "config": {"groups": 3, "replicas": 3, "sim_ops": 2000}}
		]
	}`)
	outDir := t.TempDir()
	var log strings.Builder
	sum, err := RunSpec(spec, Options{OutDir: outDir, Log: &log, Spec: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 3 {
		t.Fatalf("summary has %d cells, want 3", len(sum.Cells))
	}
	for _, name := range []string{"e2e/batch=1", "e2e/batch=64"} {
		c := sum.Cell(name)
		if c == nil {
			t.Fatalf("cell %s missing", name)
		}
		if c.Repeats != 2 || c.Metrics["throughput_tx_s"].N != 2 {
			t.Fatalf("cell %s repeats wrong: %+v", name, c)
		}
		if c.Metrics["throughput_tx_s"].Median <= 0 {
			t.Fatalf("cell %s has no throughput", name)
		}
		// PR 7's stage decomposition must survive aggregation.
		if c.Metrics["stage_ordering_p50_ns"].N == 0 {
			t.Fatalf("cell %s lost its stage decomposition: %v", name, keysOf(c.Metrics))
		}
	}
	micro := sum.Cell("micro")
	if micro == nil || micro.Metrics["followerread_gate_ns_op"].Median <= 0 {
		t.Fatalf("simbench cell wrong: %+v", micro)
	}

	// One curve table with a single series of both batch points in order.
	if len(sum.Curves) != 1 || len(sum.Curves[0].Series) != 1 {
		t.Fatalf("curves wrong: %+v", sum.Curves)
	}
	pts := sum.Curves[0].Series[0].Points
	if len(pts) != 2 || pts[0].X != 1 || pts[1].X != 64 {
		t.Fatalf("curve points wrong: %+v", pts)
	}

	// Raw artifacts: one file per run.
	ents, err := os.ReadDir(outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 5 { // 2 cells × 2 repeats + 1 simbench repeat
		t.Fatalf("%d raw artifacts, want 5", len(ents))
	}
	// A load repeat's artifact is loadgen's: it decodes as one, carries
	// the effective configuration, and its result passes Validate.
	data, err := os.ReadFile(filepath.Join(outDir, rawName("e2e/batch=64", 1)))
	if err != nil {
		t.Fatal(err)
	}
	var art loadgen.Artefact
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if err := art.Result.Validate(art.Params); err != nil {
		t.Fatal(err)
	}
	if art.Cell != "e2e/batch=64" || art.Repeat != 1 || art.Params.MaxBatch != 64 ||
		art.Params.Seed != 1+7919 || art.Params.TraceSample != 16 || art.Metrics["throughput_tx_s"] != art.Result.Throughput {
		t.Fatalf("raw artifact wrong: %+v", art)
	}

	// Summary file + history round trip on real output.
	sumPath := filepath.Join(t.TempDir(), "summary.json")
	if err := sum.WriteFile(sumPath); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSummary(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	histPath := filepath.Join(t.TempDir(), "hist.jsonl")
	back.Commit = "abc1234" // the tree under test may be modified; the trajectory refuses those
	if err := AppendHistory(histPath, HistoryFromSummary(back)); err != nil {
		t.Fatal(err)
	}
	hist, err := ReadHistory(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || len(hist[0].Cells) != 3 {
		t.Fatalf("history wrong: %+v", hist)
	}

	// A summary must always pass the gate against itself.
	if v := Compare(back, back); !v.OK {
		t.Fatalf("self-compare failed: %s", v.Format())
	}

	if !strings.Contains(log.String(), "grid complete: 3 cells") {
		t.Fatalf("progress log wrong:\n%s", log.String())
	}

	// A repeat whose Result fails Validate fails the grid run: an open
	// loop too slow to issue anything in its window returns a result,
	// not an error, and that result must not be aggregated.
	idle := testSpec(t, `{
		"schema": "flexgrid/experiments/v1",
		"repeats": 1,
		"common": {"groups": 3, "clients": 1, "warmup_ms": 50, "duration_ms": 100},
		"experiments": [{"name": "idle", "config": {"rate": 0.001}}]
	}`)
	if _, err := RunSpec(idle, Options{}); err == nil || !strings.Contains(err.Error(), "no completed transactions") {
		t.Fatalf("grid published a cell whose result fails Validate: %v", err)
	}
}

func TestRunSpecFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real sim microbenchmark")
	}
	spec := testSpec(t, `{
		"schema": "flexgrid/experiments/v1",
		"experiments": [
			{"name": "skipme", "axes": {"batch": [1]},
			 "curve": {"x": "batch", "y": ["throughput_tx_s"]}},
			{"name": "micro", "kind": "simbench", "repeats": 1,
			 "config": {"sim_ops": 1000}}
		]
	}`)
	sum, err := RunSpec(spec, Options{Filter: regexp.MustCompile(`^micro$`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Cells) != 1 || sum.Cells[0].Name != "micro" {
		t.Fatalf("filter ran wrong cells: %+v", sum.Cells)
	}
	// A filtered-out experiment's curve is skipped, not emitted empty
	// (an empty curve table would fail the summary's validation).
	if len(sum.Curves) != 0 {
		t.Fatalf("filtered run built curves: %+v", sum.Curves)
	}
	// A filter matching nothing is an error, not an empty summary.
	if _, err := RunSpec(spec, Options{Filter: regexp.MustCompile(`^nothing$`)}); err == nil {
		t.Fatal("empty filtered grid succeeded")
	}
}

func keysOf(m map[string]MetricSummary) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSoakSnapshotGrowth: the soak's snapshot check compares peaks, so
// a size that saws up and down under history pruning passes at any
// amplitude, and one that climbs with the run fails however slowly the
// cadence bound (which grows along with it) would have noticed.
func TestSoakSnapshotGrowth(t *testing.T) {
	sampler := func(size func(i int) float64) *soakSampler {
		s := &soakSampler{}
		for i := 0; i < 40; i++ {
			s.disk, s.snap, s.heap = append(s.disk, 3*size(i)), append(s.snap, size(i)), append(s.heap, 1)
		}
		return s
	}
	saw := sampler(func(i int) float64 { return 20_000 + 15_000*float64(i%7) }).metrics()
	if saw.snapGrowth > 1.01 || saw.maxSnapBytes != 110_000 {
		t.Fatalf("sawtooth: growth %.2f, largest snapshot %.0f", saw.snapGrowth, saw.maxSnapBytes)
	}
	climb := sampler(func(i int) float64 { return 80_000 + 70_000*float64(i) }).metrics()
	if climb.snapGrowth <= maxSnapGrowth {
		t.Fatalf("a snapshot growing 70 KB per sample has growth %.2f, under the %.2f bound", climb.snapGrowth, maxSnapGrowth)
	}
}

// TestSoakCellRuns drives one short soak cell for real: the sampler
// finds the rotating files and the journal apart, and the bounds hold.
func TestSoakCellRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real durable load")
	}
	spec := testSpec(t, `{
		"schema": "flexgrid/experiments/v1",
		"experiments": [
			{"name": "soak", "kind": "soak", "repeats": 1,
			 "config": {"groups": 3, "clients": 1, "workers": 4, "execute": true, "durable": true,
			            "durable_snapshot_every": 64, "warmup_ms": 100, "duration_ms": 1200, "timeout_ms": 60000},
			 "soak": {"max_heap_ratio": 100, "sample_ms": 50}}
		]
	}`)
	sum, err := RunSpec(spec, Options{OutDir: t.TempDir(), Log: &strings.Builder{}, Spec: "test"})
	if err != nil {
		t.Fatal(err)
	}
	m := sum.Cell("soak").Metrics
	for _, name := range []string{"soak_disk_peak_bytes", "soak_journal_bytes", "soak_snap_growth"} {
		if m[name].Median <= 0 {
			t.Errorf("%s = %v", name, m[name].Median)
		}
	}
}
