// Command benchmark is the repository's benchmark of record: six named
// workloads, an end-to-end metric set with fixed regression bounds
// (BENCHMARK.json) and a per-layer ledger. README.md beside this file
// defines every workload and metric.
//
// One workload, one pass — the form BENCHMARK.json's command takes:
//
//	go run ./benchmark --workload global-tcp --seed 1 --seconds 10 --trace 0
//
// --trace 0 is the untraced pass and prints the end-to-end metrics;
// --trace 1 is the traced pass and prints the per-layer metrics. The
// last line of standard output is the result as one JSON object. Without
// --workload the command runs every workload through both passes, each
// in a process of its own; -selfcheck runs the untraced pass twice and
// compares, -quick is a one-second smoke run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	started := time.Now()
	var (
		name      = flag.String("workload", "", "run one workload, one pass (empty: all workloads, both passes)")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs (1: development, 7: held out)")
		seconds   = flag.Float64("seconds", 10, "measurement window in seconds")
		trace     = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		quick     = flag.Bool("quick", false, "smoke run: 1 s windows, 2000-transaction ledger, statistical checks off")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced pass twice per workload and fail when a pair disagrees by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	o := fullOptions(*seed, time.Duration(*seconds*float64(time.Second)))
	if *quick {
		o = quickOptions(*seed)
	}
	if o.window <= 0 {
		fatalf("--seconds must be positive")
	}

	if *name == "" {
		os.Exit(orchestrate(o, *selfcheck))
	}
	w := findWorkload(*name)
	if w == nil {
		fatalf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	tmp, err := scratchDir()
	if err != nil {
		fatalf("%v", err)
	}
	o.tmp = tmp
	printEnv(o, tmp)

	var r *result
	declared := endToEnd
	if *trace == 1 {
		declared = perLayer
		r = runTraced(w, o)
	} else {
		r = runUntraced(w, o, started)
	}
	os.RemoveAll(tmp)
	fmt.Printf("# workload %s  pass %s  seed %d  window %s\n", w.name, passName(*trace), o.seed, o.window)
	for _, n := range r.notes {
		fmt.Printf("note   %s\n", n)
	}
	for _, m := range declared {
		fmt.Printf("metric %-36s %16.4f %s\n", m.name, r.metrics[m.name], m.unit)
	}
	for _, f := range r.failures {
		fmt.Printf("check FAILED  %s\n", f)
	}
	fmt.Println(resultLine(r, declared))
	if !r.correct() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func passName(trace int) string {
	if trace == 1 {
		return "traced"
	}
	return "untraced"
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// scratchDir makes this invocation's directory under benchmark/.tmp of
// the checkout and points TMPDIR at it, so that everything the run
// persists — the durable workloads' logs and snapshots, loadgen's crash
// images — stays inside the checkout and on its filesystem.
func scratchDir() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	base := filepath.Join(root, "benchmark", ".tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", err
	}
	return dir, os.Setenv("TMPDIR", dir)
}

// moduleRoot walks up from the working directory to the directory that
// holds the flexcast go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module flexcast") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no flexcast go.mod above the working directory")
		}
		dir = parent
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the pass as the one JSON object that ends the
// output. A pass with a failed output check counts every operation as
// failed.
func resultLine(r *result, declared []metric) string {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric, len(declared))}
	if out.Attempted == 0 {
		out.Attempted = 1
	}
	if !out.Correct {
		out.Failed = out.Attempted
	}
	for _, m := range declared {
		v := r.metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	return string(line)
}
