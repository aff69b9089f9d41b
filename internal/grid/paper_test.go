package grid

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/wan"
)

// The paper's §5 claims, asserted on the committed experiments.json:
// each test runs one paper-* experiment through RunSpec with only its
// duration (3 virtual seconds instead of 60) and repeat count (1)
// overridden, so the spec file itself is what is exercised.

var paperRuns = map[string]*Summary{}

// runPaper runs every cell of one paper-* experiment of the committed
// spec at the short duration; later callers get the cached summary.
func runPaper(t *testing.T, experiment string) *Summary {
	t.Helper()
	if sum, ok := paperRuns[experiment]; ok {
		return sum
	}
	sum := runCommitted(t, "^"+experiment+"/")
	paperRuns[experiment] = sum
	return sum
}

// runCommitted runs the cells of ../../experiments.json matching the
// filter, the paper-* experiments at 3 virtual seconds and one repeat.
func runCommitted(t *testing.T, filter string) *Summary {
	t.Helper()
	spec, err := LoadSpec("../../experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Experiments {
		if e := &spec.Experiments[i]; strings.HasPrefix(e.Name, "paper-") {
			e.Repeats = 1
			e.Config["duration_ms"] = 3000
		}
	}
	sum, err := RunSpec(spec, Options{Filter: regexp.MustCompile(filter)})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// metric returns a cell's metric (the median over its one repeat).
func metric(t *testing.T, sum *Summary, cell, key string) float64 {
	t.Helper()
	c := sum.Cell(cell)
	if c == nil {
		t.Fatalf("no cell %s", cell)
	}
	m, ok := c.Metrics[key]
	if !ok {
		t.Fatalf("cell %s has no metric %s", cell, key)
	}
	return m.Median
}

// curve returns one series of an experiment's curve table as x → y.
func curve(t *testing.T, sum *Summary, experiment, y, label string) map[float64]float64 {
	t.Helper()
	for _, tbl := range sum.Curves {
		if tbl.Experiment != experiment || tbl.Y != y {
			continue
		}
		for _, sr := range tbl.Series {
			if sr.Label == label {
				out := map[float64]float64{}
				for _, p := range sr.Points {
					out[p.X] = p.Y
				}
				return out
			}
		}
	}
	t.Fatalf("summary has no curve %s/%s series %q", experiment, y, label)
	return nil
}

func group(key string, g amcast.GroupID) string { return fmt.Sprintf("%s_g%02d", key, g) }

func TestPaperFig1ShapeMatchesPaper(t *testing.T) {
	sum := runPaper(t, "paper-fig1")
	overhead := func(g amcast.GroupID) float64 {
		return curve(t, sum, "paper-fig1", group("overhead_pct", g), "")[0.9]
	}
	// The continental subtree roots (5 = America, 9 = Asia) dominate the
	// overhead; leaves have none (paper §5.8 and Figure 1).
	if overhead(5) < 5 || overhead(9) < 5 {
		t.Fatalf("subtree roots show no overhead: 5=%.1f%% 9=%.1f%%", overhead(5), overhead(9))
	}
	for _, leaf := range []amcast.GroupID{1, 2, 3, 4, 10, 11, 12, 6} {
		if overhead(leaf) > 5 {
			t.Errorf("leaf group %d has overhead %.1f%%", leaf, overhead(leaf))
		}
	}
	if mean := curve(t, sum, "paper-fig1", "overhead_mean_pct", "")[0.9]; mean <= 0 || mean > 30 {
		t.Fatalf("mean overhead = %.1f%%, outside plausible band", mean)
	}
}

func TestPaperFig5O1BeatsO2OnFirstDestination(t *testing.T) {
	fc := runPaper(t, "paper-fig5-flexcast")
	o1 := curve(t, fc, "paper-fig5-flexcast", "dest1_p90_ms", "o1")[0.9]
	o2 := curve(t, fc, "paper-fig5-flexcast", "dest1_p90_ms", "o2")[0.9]
	if o1 > o2 {
		t.Errorf("O1 1st-dest p90 (%.1f ms) worse than O2 (%.1f ms); paper expects O1 <= O2", o1, o2)
	}
	// T3 (the star) must be the worst hierarchical tree at the first
	// destination: every message crosses the root.
	hi := runPaper(t, "paper-fig5-hierarchical")
	t1 := curve(t, hi, "paper-fig5-hierarchical", "dest1_p90_ms", "t1")[0.9]
	t3 := curve(t, hi, "paper-fig5-hierarchical", "dest1_p90_ms", "t3")[0.9]
	if t3 < t1 {
		t.Errorf("T3 1st-dest p90 (%.1f ms) better than T1 (%.1f ms); paper expects the star to bottleneck", t3, t1)
	}
}

func TestPaperFig6FlexCastSaturatesBelowHierarchical(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput sweep is slow")
	}
	sum := runPaper(t, "paper-fig6")
	tput := func(protocol string) map[float64]float64 {
		return curve(t, sum, "paper-fig6", "throughput_tx_s", protocol)
	}
	if fc, hi := tput("flexcast")[1440], tput("hierarchical")[1440]; fc >= hi {
		t.Errorf("FlexCast plateau (%.0f) not below hierarchical (%.0f); paper expects FlexCast to saturate first", fc, hi)
	}
	// Throughput must grow from 24 clients to the plateau for every
	// protocol.
	for _, protocol := range []string{"flexcast", "hierarchical", "skeen"} {
		if c := tput(protocol); c[24] >= c[1440] {
			t.Errorf("%s: no growth from 24 clients (%.0f) to 1440 (%.0f)", protocol, c[24], c[1440])
		}
	}
}

func TestPaperFig7FlexCastWinsFirstDestination(t *testing.T) {
	sum := runPaper(t, "paper-fig7")
	p90 := func(protocol string) map[float64]float64 {
		return curve(t, sum, "paper-fig7", "dest1_p90_ms", protocol)
	}
	// The paper's headline (§5.6): FlexCast outperforms both baselines at
	// the first destination for every locality rate.
	for _, loc := range []float64{0.9, 0.95, 0.99} {
		fc, hi, di := p90("flexcast")[loc], p90("hierarchical")[loc], p90("skeen")[loc]
		if fc > hi || fc > di {
			t.Errorf("locality %v: FlexCast 1st-dest p90 %.1f ms not best (hier %.1f, dist %.1f)", loc, fc, hi, di)
		}
	}
	// The distributed protocol is the most locality-sensitive baseline at
	// the first destination (paper: up to 29% reduction from 90% to 99%).
	if d := p90("skeen"); d[0.99] > d[0.9] {
		t.Errorf("distributed got slower with more locality: %.1f -> %.1f ms", d[0.9], d[0.99])
	}
}

func TestPaperFig8HistoryCostGrowsUpTheDAG(t *testing.T) {
	if testing.Short() {
		t.Skip("720-client run is slow")
	}
	sum := runPaper(t, "paper-fig8")
	size := func(protocol string, g amcast.GroupID) float64 {
		return curve(t, sum, "paper-fig8", group("recv_avg_b", g), protocol)[720]
	}
	// The paper's Figure 8(a): average message size increases as nodes
	// ascend the C-DAG. Compare the low-rank third to the high-rank
	// third of O1's rank order, the figure's x axis.
	rank := wan.O1().Order()
	if len(rank) != wan.NumRegions {
		t.Fatalf("O1 rank order has %d entries", len(rank))
	}
	lo := (size("flexcast", rank[0]) + size("flexcast", rank[1]) + size("flexcast", rank[2])) / 3
	hi := (size("flexcast", rank[9]) + size("flexcast", rank[10]) + size("flexcast", rank[11])) / 3
	if hi <= lo {
		t.Errorf("FlexCast message size does not grow up the DAG: low ranks %.0fB, high ranks %.0fB", lo, hi)
	}
	// Baseline protocols have flat message sizes.
	smallest, largest := math.Inf(1), 0.0
	for _, g := range wan.Groups() {
		smallest, largest = math.Min(smallest, size("hierarchical", g)), math.Max(largest, size("hierarchical", g))
	}
	if largest > 2*smallest {
		t.Errorf("hierarchical message sizes not flat: %.0f..%.0f", smallest, largest)
	}
}

func TestPaperFig9TreeOverheadProperties(t *testing.T) {
	sum := runPaper(t, "paper-fig9")
	table := func(y, tree string) map[float64]float64 { return curve(t, sum, "paper-fig9", y, tree) }
	// T1's overhead decreases as locality increases (paper Table 4:
	// 9.16% -> 7.33% -> 5.41%).
	if m := table("overhead_mean_pct", "t1"); m[0.9] < m[0.99] {
		t.Errorf("T1 overhead grew with locality: %.2f%% -> %.2f%%", m[0.9], m[0.99])
	}
	// T3's root bears the maximum overhead of all configurations (paper:
	// constant 56% max).
	if t3, t1 := table("overhead_max_pct", "t3")[0.9], table("overhead_max_pct", "t1")[0.9]; t3 < t1 {
		t.Errorf("T3 max overhead (%.1f%%) below T1 (%.1f%%)", t3, t1)
	}
	// Only inner nodes can have overhead; every tree keeps the mean
	// within a plausible band.
	for _, tree := range []string{"t1", "t2", "t3"} {
		for loc, mean := range table("overhead_mean_pct", tree) {
			if mean < 0 || mean > 30 {
				t.Errorf("%s@%v: implausible mean overhead %.2f%%", tree, loc, mean)
			}
		}
	}
}

// TestFig5VerifyCellsPassSpecChecks runs the committed fig5-verify
// cells as they are: FlexCast on O1 with garbage collection under
// gTPC-C, recorded and checked with trace.CheckAll — the integration
// test that ties workload, WAN, engines and checkers together. Seed 2
// is the historical staircase-ring repro (DESIGN.md §4 deviation 8).
func TestFig5VerifyCellsPassSpecChecks(t *testing.T) {
	sum := runCommitted(t, "^fig5-verify/")
	if len(sum.Cells) != 4 || sum.Cell("fig5-verify/seed=2") == nil {
		t.Fatalf("fig5-verify cells wrong: %+v", sum.Cells)
	}
}

func TestPaperCellsDeterministicPerSeed(t *testing.T) {
	a, b := runPaper(t, "paper-fig1"), runCommitted(t, "^paper-fig1/")
	am, bm := a.Cells[0].Metrics, b.Cells[0].Metrics
	if len(am) != len(bm) {
		t.Fatalf("same seed produced %d and %d metrics", len(am), len(bm))
	}
	for k, m := range am {
		if bm[k].Median != m.Median {
			t.Errorf("same seed produced different %s: %v, %v", k, m.Median, bm[k].Median)
		}
	}
}

// TestPaperCellsMatchParentGolden is the equivalence check of the
// move from the hand-written per-figure sweeps to sim cells:
// testdata/paper-golden.json was recorded from the experiments
// package's FigN(Options{Scale: 0.05, Seed: 1}) at commit 22625b4, the
// last that had it, one entry per harness run, keyed by the cell that
// replaced the run. The simulator is
// deterministic, so counts must be equal and floats agree to rounding.
func TestPaperCellsMatchParentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper cell, the throughput sweep included")
	}
	data, err := os.ReadFile("testdata/paper-golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Cell         string             `json:"cell"`
		Metrics      map[string]float64 `json:"metrics"`
		EnvsReceived []uint64           `json:"envs_received"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	// The golden covers every paper cell, and nothing else.
	spec, err := LoadSpec("../../experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	uncovered := map[string]bool{}
	for _, c := range cells {
		if strings.HasPrefix(c.Name, "paper-") {
			uncovered[c.Name] = true
		}
	}
	for _, g := range golden {
		if !uncovered[g.Cell] {
			t.Fatalf("golden entry %s is not a paper cell of experiments.json", g.Cell)
		}
		delete(uncovered, g.Cell)
		sum := runPaper(t, g.Cell[:strings.IndexByte(g.Cell, '/')])
		for key, want := range g.Metrics {
			got := metric(t, sum, g.Cell, key)
			exact := key == "completed" || key == "sim_events"
			if got != want && (exact || math.Abs(got-want) > 1e-9*math.Abs(want)) {
				t.Errorf("%s %s = %v, parent had %v", g.Cell, key, got, want)
			}
		}
		for k := 1; k <= 3; k++ {
			key := fmt.Sprintf("dest%d_p90_ms", k)
			_, cellHas := sum.Cell(g.Cell).Metrics[key]
			if _, parentHad := g.Metrics[key]; cellHas != parentHad {
				t.Errorf("%s: %s present = %v, unlike the parent", g.Cell, key, cellHas)
			}
		}
		for i, want := range g.EnvsReceived {
			// 3 = the run's virtual seconds: the cell reports a rate.
			got := metric(t, sum, g.Cell, group("recv_msgs_s", amcast.GroupID(i+1))) * 3
			if math.Round(got) != float64(want) || math.Abs(got-math.Round(got)) > 1e-6 {
				t.Errorf("%s group %d received %v envelopes, parent had %d", g.Cell, i+1, got, want)
			}
		}
	}
	for name := range uncovered {
		t.Errorf("paper cell %s has no golden entry", name)
	}
}

func TestSimCellRejectsBadParameters(t *testing.T) {
	for label, cell := range map[string]Cell{
		"unknown overlay":       {Kind: "sim", Params: map[string]any{"overlay": "o9"}},
		"tree under flexcast":   {Kind: "sim", Params: map[string]any{"protocol": "flexcast", "overlay": "t1"}},
		"c-dag under skeen":     {Kind: "sim", Params: map[string]any{"protocol": "skeen", "overlay": "o1"}},
		"unknown protocol":      {Kind: "sim", Params: map[string]any{"protocol": "paxos"}},
		"mistyped verify":       {Kind: "sim", Params: map[string]any{"verify": "yes"}},
		"sim key on a load run": {Kind: "load", Params: map[string]any{"verify": true}},
	} {
		if _, err := runCell(cell, 0); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}
