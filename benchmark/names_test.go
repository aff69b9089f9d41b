package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"flexcast/internal/loadgen"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declJSON `json:"end_to_end"`
	PerLayer []declJSON `json:"per_layer"`
}

type declJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDeclarations(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]{1,64}", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// BENCHMARK.json and the program declare the same workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	compare := func(kind string, file []declJSON, prog []metric, bounded bool) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(file), len(prog))
			return
		}
		for i, m := range prog {
			f := file[i]
			if f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], the program %s [%s, %s]", kind, i, f.Name, f.Unit, f.Better, m.name, m.unit, m.better)
			}
			switch {
			case bounded && (f.Bound == nil || *f.Bound != m.bound):
				t.Errorf("%s metric %s: bounds differ between BENCHMARK.json and the program (%v)", kind, m.name, m.bound)
			case !bounded && f.Bound != nil:
				t.Errorf("%s metric %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}

// smokeOptions is smaller still than -quick: enough for every metric to
// be produced, nothing to be read off.
func smokeOptions(t *testing.T, seed int64) options {
	return options{
		seed:         seed,
		window:       200 * time.Millisecond,
		warmup:       50 * time.Millisecond,
		tracedWarmup: 50 * time.Millisecond,
		smrWarmupOps: 400,
		ledgerTxs:    500,
		probeRounds:  20,
		paxosDecides: 200,
		quick:        true,
		tmp:          t.TempDir(),
	}
}

// Every name a pass prints is declared, and every declared name is
// printed, on every workload; the development seed and the held-out seed
// both reach a correct run.
func TestEveryDeclaredMetricIsPrinted(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(pass string, got values, declared []declJSON) {
		t.Helper()
		want := map[string]bool{}
		for _, d := range declared {
			want[d.Name] = true
			if _, ok := got[d.Name]; !ok {
				t.Errorf("%s: declared metric %s not printed", pass, d.Name)
			}
		}
		for name := range got {
			if !want[name] {
				t.Errorf("%s: printed metric %s not declared in BENCHMARK.json", pass, name)
			}
		}
	}
	for i := range workloads {
		w := &workloads[i]
		traced := runTraced(w, smokeOptions(t, 7))
		check(w.name+" traced", traced.metrics, b.PerLayer)
		for _, f := range traced.failures {
			t.Errorf("%s traced, seed 7: check failed: %s", w.name, f)
		}
		if w.name != "global-tcp" && !w.sim {
			continue // the untraced pass is one code path per kind of workload
		}
		untraced := runUntraced(w, smokeOptions(t, 1), time.Now())
		check(w.name+" untraced", untraced.metrics, b.EndToEnd)
		for _, f := range untraced.failures {
			t.Errorf("%s untraced, seed 1: check failed: %s", w.name, f)
		}
	}
}

// A wrong output makes a failed run: the check names what is wrong, the
// result line says incorrect and counts every operation as failed.
func TestWrongOutputFailsTheRun(t *testing.T) {
	w := findWorkload("durable")
	cfg := w.loadConfig(1, 0, time.Second, false, "")
	good := &loadgen.Result{
		Completed:  10000,
		Issued:     10000,
		WindowSecs: 1,
		Execute:    &loadgen.ExecuteResult{InvariantsOK: true, ReplicaDigestsOK: true, AbortRate: 0.005},
		Durable:    &loadgen.DurableResult{DigestsMatch: true, MaxReplayedEnvelopes: 100},
	}
	r := &result{metrics: values{}, attempted: 10000}
	checkLoadgen(r, w, cfg, good, options{})
	if !r.correct() {
		t.Fatalf("a good result failed its checks: %v", r.failures)
	}

	doubles := map[string]func(res *loadgen.Result){
		"digest": func(res *loadgen.Result) { res.Durable = &loadgen.DurableResult{DigestsMatch: false} },
		"replay": func(res *loadgen.Result) {
			res.Durable = &loadgen.DurableResult{DigestsMatch: true, MaxReplayedEnvelopes: 100000}
		},
		"invariants": func(res *loadgen.Result) { res.Execute = &loadgen.ExecuteResult{ReplicaDigestsOK: true} },
		"abort rate": func(res *loadgen.Result) {
			res.Execute = &loadgen.ExecuteResult{InvariantsOK: true, ReplicaDigestsOK: true, AbortRate: 0.2}
		},
	}
	for name, breakIt := range doubles {
		bad := *good
		breakIt(&bad)
		r := &result{metrics: values{}, attempted: 10000}
		checkLoadgen(r, w, cfg, &bad, options{})
		if r.correct() {
			t.Errorf("%s: a wrong output passed the checks", name)
			continue
		}
		var line jsonResult
		if err := json.Unmarshal([]byte(resultLine(r, endToEnd)), &line); err != nil {
			t.Fatal(err)
		}
		if line.Correct || line.Failed != line.Attempted || line.Attempted != 10000 {
			t.Errorf("%s: result line %+v, want incorrect with every operation failed", name, line)
		}
	}
}
