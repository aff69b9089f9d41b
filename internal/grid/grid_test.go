package grid

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func appendRawLine(t *testing.T, path, line string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(line + "\n"); err != nil {
		t.Fatal(err)
	}
}

func testSpec(t *testing.T, doc string) *Spec {
	t.Helper()
	s, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecExpansion(t *testing.T) {
	s := testSpec(t, `{
		"schema": "flexgrid/experiments/v1",
		"repeats": 2,
		"common": {"groups": 3, "workers": 8},
		"experiments": [
			{"name": "sweep",
			 "config": {"workers": 16},
			 "axes": {"batch": [1, 64], "transport": ["inmem", "wan"]}},
			{"name": "solo", "kind": "simbench", "repeats": 5}
		]
	}`)
	cells, err := s.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("expanded %d cells, want 5 (2×2 + 1)", len(cells))
	}
	// Axes expand in sorted-key order, values in listed order.
	wantNames := []string{
		"sweep/batch=1,transport=inmem",
		"sweep/batch=1,transport=wan",
		"sweep/batch=64,transport=inmem",
		"sweep/batch=64,transport=wan",
		"solo",
	}
	for i, want := range wantNames {
		if cells[i].Name != want {
			t.Errorf("cell %d = %q, want %q", i, cells[i].Name, want)
		}
	}
	// Merge precedence: common < config < axis.
	c0 := cells[0]
	if c0.Params["groups"] != float64(3) || c0.Params["workers"] != float64(16) || c0.Params["batch"] != float64(1) {
		t.Fatalf("merged params wrong: %v", c0.Params)
	}
	if cells[4].Repeats != 5 || cells[0].Repeats != 2 {
		t.Fatalf("repeat override lost: %d / %d", cells[4].Repeats, cells[0].Repeats)
	}
	if cells[4].Kind != "simbench" || cells[0].Kind != "load" {
		t.Fatalf("kinds wrong: %q / %q", cells[4].Kind, cells[0].Kind)
	}
}

func TestSpecRejections(t *testing.T) {
	cases := map[string]string{
		"bad schema":     `{"schema": "nope/v1", "experiments": [{"name": "a"}]}`,
		"no experiments": `{"schema": "flexgrid/experiments/v1", "experiments": []}`,
		"dup name":       `{"schema": "flexgrid/experiments/v1", "experiments": [{"name": "a"}, {"name": "a"}]}`,
		"bad kind":       `{"schema": "flexgrid/experiments/v1", "experiments": [{"name": "a", "kind": "nope"}]}`,
		"unknown field":  `{"schema": "flexgrid/experiments/v1", "experiment": []}`,
		"curve non-axis": `{"schema": "flexgrid/experiments/v1", "experiments": [{"name": "a", "curve": {"x": "batch", "y": ["throughput_tx_s"]}}]}`,
	}
	for label, doc := range cases {
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestDecodeParamsRejectsUnknownKeys(t *testing.T) {
	cell := func(params map[string]any) Cell { return Cell{Name: "c", Params: params} }
	if _, err := decodeParams(cell(map[string]any{"bacth": 64}), 0); err == nil {
		t.Fatal("typo'd parameter accepted")
	}
	if _, err := decodeParams(cell(map[string]any{"sim_ops": "many"}), 0); err == nil {
		t.Fatal("mistyped sim_ops accepted")
	}
	c := cell(map[string]any{"batch": float64(64), "transport": "wan", "sim_ops": float64(500)})
	p, err := decodeParams(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.load.MaxBatch != 64 || p.load.Transport != "wan" || p.SimOps != 500 {
		t.Fatalf("conversion wrong: %+v", p)
	}
	// Repeats get distinct seeds, deterministically.
	p1, _ := decodeParams(c, 1)
	p1again, _ := decodeParams(c, 1)
	if p.load.Seed == p1.load.Seed {
		t.Fatal("repeats share a workload seed")
	}
	if p1.load.Seed != p1again.load.Seed {
		t.Fatal("repeat seed not deterministic")
	}
}

// TestCellConfigsMatchGolden decodes every cell of the two committed
// specs, repeats 0 and 1, and compares the loadgen.Config (and non-load
// knobs, where set) each yields with testdata/cell-configs.golden — its
// load cells captured with the hand-written grid.loadParams/loadConfig
// pair this table-driven decode replaced, so any drift in a key, a unit
// or the per-repeat seed rule shows up as a diff of the exact
// configuration a cell runs.
func TestCellConfigsMatchGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/cell-configs.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.SplitN(line, "\t", 4)
		if len(f) != 4 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[f[0]+"\t"+f[1]+"\t"+f[2]] = f[3]
	}
	seen := 0
	for _, name := range []string{"experiments.json", "bench/experiments-ci.json"} {
		spec, err := LoadSpec(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		cells, err := spec.Cells()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			for rep := 0; rep < 2; rep++ {
				p, err := decodeParams(c, rep)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s\t%s\t%d", name, c.Name, rep)
				golden, ok := want[key]
				if !ok {
					t.Errorf("%s: no golden line (a spec gained a cell: add its line to the golden)", key)
					continue
				}
				seen++
				got := fmt.Sprintf("%+v", p.load)
				if p.simKnobs != (simKnobs{}) {
					got += fmt.Sprintf(" %+v", p.simKnobs)
				}
				if got != golden {
					t.Errorf("%s:\n got %s\nwant %s", key, got, golden)
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("golden has %d lines, the specs produced %d of them", len(want), seen)
	}
}

func testCell(name string, gate *GateSpec) Cell {
	return Cell{Experiment: name, Name: name, Kind: "load", Repeats: 3, Gate: gate}
}

func summaryFrom(t *testing.T, cells ...CellSummary) *Summary {
	t.Helper()
	s := &Summary{Schema: Schema, Commit: "test", Date: "2026-01-01T00:00:00Z", Cells: cells,
		Host: map[string]any{"go": "go1.22", "gomaxprocs": 2}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func loadCellSummary(name string, throughput, iqr float64, gate *GateSpec) CellSummary {
	return CellSummary{
		Name: name, Experiment: name, Kind: "load", Repeats: 3, Gate: gate,
		Metrics: map[string]MetricSummary{
			"throughput_tx_s": {Median: throughput, IQR: iqr, Min: throughput - iqr, Max: throughput + iqr, N: 3},
			"latency_p50_us":  {Median: 100, IQR: 5, Min: 95, Max: 105, N: 3},
			"latency_p99_us":  {Median: 500, IQR: 20, Min: 480, Max: 520, N: 3},
		},
	}
}

func TestAggregateMedianIQR(t *testing.T) {
	cell := testCell("c", nil)
	got := aggregate(cell, []map[string]float64{
		{"throughput_tx_s": 100, "latency_p50_us": 10},
		{"throughput_tx_s": 110, "latency_p50_us": 12},
		{"throughput_tx_s": 130, "latency_p50_us": 11},
		// A metric present in only some repeats aggregates over those.
		{"throughput_tx_s": 120, "latency_p50_us": 13, "stage_execute_p50_ns": 400},
	})
	tp := got.Metrics["throughput_tx_s"]
	if tp.Median != 115 || tp.N != 4 || tp.Min != 100 || tp.Max != 130 {
		t.Fatalf("throughput summary wrong: %+v", tp)
	}
	if tp.IQR != 15 { // q1 107.5, q3 122.5
		t.Fatalf("throughput IQR = %v, want 15", tp.IQR)
	}
	st := got.Metrics["stage_execute_p50_ns"]
	if st.N != 1 || st.Median != 400 {
		t.Fatalf("partial metric summary wrong: %+v", st)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := summaryFrom(t, loadCellSummary("a", 1000, 20, nil))

	// Identical candidate: clean pass.
	cand := summaryFrom(t, loadCellSummary("a", 1000, 20, nil))
	if v := Compare(base, cand); !v.OK || v.Checked != 3 || len(v.Regressions) != 0 {
		t.Fatalf("identical compare failed: %+v", v)
	}

	// Within the noise band (IQR 20 → ±60, rel floor ±100): passes.
	cand = summaryFrom(t, loadCellSummary("a", 950, 20, nil))
	if v := Compare(base, cand); !v.OK {
		t.Fatalf("in-band noise flagged: %+v", v.Regressions)
	}

	// A 20% throughput regression must fail under the default gate.
	cand = summaryFrom(t, loadCellSummary("a", 800, 20, nil))
	v := Compare(base, cand)
	if v.OK || len(v.Regressions) != 1 || v.Regressions[0].Metric != "throughput_tx_s" {
		t.Fatalf("20%% regression passed: %+v", v)
	}
	if math.Abs(v.Regressions[0].Rel-0.2) > 1e-9 {
		t.Fatalf("regression rel = %v, want 0.2", v.Regressions[0].Rel)
	}

	// Lower-is-better direction: latency up 20% fails, throughput up
	// 20% is an improvement, not a regression.
	worse := loadCellSummary("a", 1200, 20, nil)
	worse.Metrics["latency_p99_us"] = MetricSummary{Median: 600, IQR: 20, Min: 580, Max: 620, N: 3}
	v = Compare(base, summaryFrom(t, worse))
	if v.OK || len(v.Regressions) != 1 || v.Regressions[0].Metric != "latency_p99_us" {
		t.Fatalf("latency regression missed: %+v", v)
	}
	if len(v.Improvements) != 1 || v.Improvements[0].Metric != "throughput_tx_s" {
		t.Fatalf("improvement not reported: %+v", v.Improvements)
	}

	// Noisy cells earn wider bands: the same 20% drop passes when the
	// IQR is huge.
	cand = summaryFrom(t, loadCellSummary("a", 800, 200, nil))
	if v := Compare(base, cand); !v.OK {
		t.Fatalf("20%% drop inside 3×IQR flagged: %+v", v.Regressions)
	}

	// A custom gate can relax the floor.
	lax := &GateSpec{Metrics: []string{"throughput_tx_s"}, MinRel: 0.5}
	cand = summaryFrom(t, loadCellSummary("a", 800, 20, lax))
	if v := Compare(base, cand); !v.OK {
		t.Fatalf("lax gate still failed: %+v", v.Regressions)
	}

	// A missing cell or metric fails loudly.
	other := summaryFrom(t, loadCellSummary("b", 1000, 20, nil))
	if v := Compare(base, other); v.OK || len(v.Missing) != 1 {
		t.Fatalf("missing cell passed: %+v", v)
	}
	noTp := loadCellSummary("a", 1000, 20, nil)
	delete(noTp.Metrics, "throughput_tx_s")
	// (Built by hand: a load cell without throughput would not pass
	// Summary.Validate, but the gate must still fail it explicitly.)
	cand = &Summary{Schema: Schema, Commit: "test", Date: "d", Cells: []CellSummary{noTp}}
	if v := Compare(base, cand); v.OK || len(v.Missing) != 1 {
		t.Fatalf("missing metric passed: %+v", v)
	}
}

func TestSummaryValidation(t *testing.T) {
	good := summaryFrom(t, loadCellSummary("a", 1000, 20, nil))
	bad := *good
	bad.Schema = "nope"
	if err := bad.Validate(); err == nil {
		t.Error("bad schema accepted")
	}
	dup := summaryFrom(t, loadCellSummary("a", 1000, 20, nil))
	dup.Cells = append(dup.Cells, dup.Cells[0])
	if err := dup.Validate(); err == nil {
		t.Error("duplicate cell accepted")
	}
	nan := summaryFrom(t, loadCellSummary("a", 1000, 20, nil))
	nan.Cells[0].Metrics["x"] = MetricSummary{Median: math.NaN(), N: 1}
	if err := nan.Validate(); err == nil {
		t.Error("NaN metric accepted")
	}
	incoherent := summaryFrom(t, loadCellSummary("a", 1000, 20, nil))
	incoherent.Cells[0].Metrics["x"] = MetricSummary{Median: 5, Min: 10, Max: 20, N: 1}
	if err := incoherent.Validate(); err == nil {
		t.Error("median below min accepted")
	}
	zeroTp := summaryFrom(t, loadCellSummary("a", 1000, 20, nil))
	zeroTp.Cells[0].Metrics["throughput_tx_s"] = MetricSummary{Median: 0, N: 1}
	if err := zeroTp.Validate(); err == nil {
		t.Error("zero-throughput load cell accepted")
	}
}

func TestSummaryFileRoundTrip(t *testing.T) {
	s := summaryFrom(t, loadCellSummary("a", 1000, 20, nil))
	path := filepath.Join(t.TempDir(), "summary.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Commit != "test" || len(back.Cells) != 1 || back.Cells[0].Metrics["throughput_tx_s"].Median != 1000 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestHistoryRoundTripAndValidation(t *testing.T) {
	s := summaryFrom(t, loadCellSummary("a", 1000, 20, nil), loadCellSummary("b", 2000, 30, nil))
	e := HistoryFromSummary(s)
	if e.Schema != HistorySchema || len(e.Cells) != 2 {
		t.Fatalf("history entry wrong: %+v", e)
	}
	if e.Cells["a"]["throughput_tx_s"] != 1000 || e.Cells["b"]["latency_p50_us"] != 100 {
		t.Fatalf("medians lost: %+v", e.Cells)
	}

	path := filepath.Join(t.TempDir(), "hist.jsonl")
	if err := AppendHistory(path, e); err != nil {
		t.Fatal(err)
	}
	e2 := e
	e2.Commit = "test2"
	if err := AppendHistory(path, e2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Commit != "test" || got[1].Commit != "test2" {
		t.Fatalf("history read back %d entries: %+v", len(got), got)
	}
	if got[1].Cells["a"]["throughput_tx_s"] != 1000 {
		t.Fatalf("history medians lost: %+v", got[1].Cells)
	}

	// Schema violations are rejected on append and on read.
	if err := AppendHistory(path, HistoryEntry{Schema: "nope"}); err == nil {
		t.Fatal("bad schema appended")
	}

	// Provenance: the host map travels into the line, and an entry from
	// a modified tree is refused — while the committed trajectory's two
	// early -dirty lines stay readable.
	if got[0].Host["gomaxprocs"] != float64(2) {
		t.Fatalf("host map lost: %+v", got[0].Host)
	}
	dirty := e
	dirty.Commit = "abc1234-dirty"
	if err := AppendHistory(path, dirty); err == nil || !strings.Contains(err.Error(), "modified tree") {
		t.Fatalf("dirty-tree entry appended: %v", err)
	}
	committed, err := ReadHistory(filepath.Join("..", "..", "BENCH_history.jsonl"))
	if err != nil || len(committed) < 2 || !strings.HasSuffix(committed[0].Commit, "-dirty") {
		t.Fatalf("committed history unreadable: %d entries, %v", len(committed), err)
	}
	badPath := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := AppendHistory(badPath, e); err != nil {
		t.Fatal(err)
	}
	appendRawLine(t, badPath, `{"schema":"flexgrid-history/v1","commit":"x","date":"d","cells":{}}`)
	if _, err := ReadHistory(badPath); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("empty-cells line accepted: %v", err)
	}
}
