package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// orchestrate runs every workload, one pass per child process — the
// way BENCHMARK.json's command is run, so that no pass inherits another
// pass's heap or process-wide histograms. Without selfcheck every
// workload gets the untraced and then the traced pass; with it the
// untraced pass runs twice and the two runs are held against each
// end-to-end metric's bound. It returns the exit code.
func orchestrate(o options, selfcheck bool) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	passes := []int{0, 1}
	if selfcheck {
		passes = []int{0, 0}
	}
	code := 0
	for _, w := range workloads {
		var runs []*jsonResult
		for _, trace := range passes {
			res, ok := runChild(self, w.name, trace, o)
			if !ok {
				code = 1
			}
			runs = append(runs, res)
		}
		if selfcheck && runs[0] != nil && runs[1] != nil && !compareRuns(w.name, runs[0], runs[1], o.quick) {
			code = 1
		}
	}
	if code != 0 {
		fmt.Println("# FAILED: see the check and selfcheck lines above")
	}
	return code
}

// runChild runs one pass in a child process, echoing its output, and
// returns the result its last line carries; ok is false when the child
// failed or reported an incorrect run.
func runChild(self, workload string, trace int, o options) (*jsonResult, bool) {
	args := []string{
		"--workload", workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.window.Seconds(), 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
	}
	if o.quick {
		args = append(args, "--quick")
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(out.Bytes())
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		fmt.Printf("# %s pass %s printed no result: %v (%v)\n", workload, passName(trace), err, runErr)
		return nil, false
	}
	return &res, runErr == nil && res.Correct
}

// compareRuns prints the selfcheck table of one workload and reports
// whether every pair agrees within its metric's bound (quick runs are
// too short to be held to the bounds and only print).
func compareRuns(workload string, a, b *jsonResult, quick bool) bool {
	ok := true
	for _, m := range endToEnd {
		va, vb := a.Metrics[m.name].Value, b.Metrics[m.name].Value
		diff := math.Abs(ratio(vb-va, va))
		verdict := "ok"
		if diff > m.bound {
			verdict = "DISAGREE"
			ok = ok && quick
		}
		fmt.Printf("selfcheck %-12s %-12s %14.4f %14.4f %s  diff %.4f  bound %.2f  %s\n",
			workload, m.name, va, vb, m.unit, diff, m.bound, verdict)
	}
	return ok
}
