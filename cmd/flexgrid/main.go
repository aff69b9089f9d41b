// Command flexgrid is the paper-grade experiment grid runner: it
// expands experiments.json (axes × repeats) into cells, runs each
// cell in-process through internal/loadgen (plus the sim
// microbenchmark, soak, paper-simulation and chaos-exploration kinds),
// and writes one raw JSON per run and an aggregated summary — per-cell
// medians, IQR noise bands, stage decompositions and fig5/fig6-style
// curve tables. A violating chaos cell fails the run and prints, per
// failing schedule, the -repro-seed command that replays it. On top sit
// the perf trajectory (-append-history folds the summary into
// BENCH_history.jsonl) and the CI regression gate (-compare fails when a
// tracked metric regresses beyond its noise band).
//
// Usage:
//
//	flexgrid -config experiments.json -out-dir bench/grid
//	flexgrid -config experiments.json -append-history BENCH_history.jsonl
//	flexgrid -config bench/experiments-ci.json -compare bench/grid-ci-baseline.json
//	flexgrid -config bench/experiments-chaos.json -out-dir ''   # fault exploration
//	flexgrid -config bench/experiments-chaos.json -cells '^chaos-random/protocol=flexcast$' -repro-seed N
//	flexgrid -load summary.json -compare baseline.json   # gate without re-running
//	flexgrid -validate summary.json
//	flexgrid -validate-history BENCH_history.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"

	"flexcast/internal/grid"
)

func main() {
	var (
		config     = flag.String("config", "experiments.json", "experiments grid to run")
		outDir     = flag.String("out-dir", "bench/grid", "directory for raw per-run JSON artifacts (empty disables)")
		out        = flag.String("out", "", "summary output path (default <out-dir>/summary.json; empty with empty -out-dir skips)")
		cellsF     = flag.String("cells", "", "run only cells whose name matches this regexp")
		loadF      = flag.String("load", "", "use an existing summary instead of running the grid")
		appendHist = flag.String("append-history", "", "fold the summary into this BENCH_history.jsonl")
		compare    = flag.String("compare", "", "gate the summary against this baseline summary; regressions exit non-zero")
		validate   = flag.String("validate", "", "validate a summary file and exit")
		valHist    = flag.String("validate-history", "", "validate a history file and exit")
		reproSeed  = flag.Int64("repro-seed", 0, "replay this one schedule of the single chaos cell -cells selects (from a reproduce line)")
	)
	flag.Parse()

	if *validate != "" {
		s, err := grid.LoadSummary(*validate)
		if err != nil {
			log.Fatalf("flexgrid: %v", err)
		}
		fmt.Printf("%s: valid (%s, %d cells, %d curves, commit %s)\n",
			*validate, s.Schema, len(s.Cells), len(s.Curves), s.Commit)
		return
	}
	if *valHist != "" {
		entries, err := grid.ReadHistory(*valHist)
		if err != nil {
			log.Fatalf("flexgrid: %v", err)
		}
		fmt.Printf("%s: valid (%d entries", *valHist, len(entries))
		if len(entries) > 0 {
			last := entries[len(entries)-1]
			fmt.Printf(", last %s @ %s, %d cells", last.Commit, last.Date, len(last.Cells))
		}
		fmt.Println(")")
		return
	}

	var summary *grid.Summary
	if *loadF != "" {
		s, err := grid.LoadSummary(*loadF)
		if err != nil {
			log.Fatalf("flexgrid: %v", err)
		}
		summary = s
	} else {
		spec, err := grid.LoadSpec(*config)
		if err != nil {
			log.Fatalf("flexgrid: %v", err)
		}
		opt := grid.Options{OutDir: *outDir, Log: os.Stdout, Spec: filepath.Base(*config), ReproSeed: *reproSeed}
		if *cellsF != "" {
			re, err := regexp.Compile(*cellsF)
			if err != nil {
				log.Fatalf("flexgrid: -cells: %v", err)
			}
			opt.Filter = re
		}
		summary, err = grid.RunSpec(spec, opt)
		if err != nil {
			log.Printf("flexgrid: %v", err)
			var v *grid.Violation
			if errors.As(err, &v) {
				for _, line := range v.Reproduce(*config) {
					fmt.Fprintln(os.Stderr, line)
				}
			}
			os.Exit(1)
		}
		path := *out
		if path == "" && *outDir != "" {
			path = filepath.Join(*outDir, "summary.json")
		}
		if path != "" {
			if err := summary.WriteFile(path); err != nil {
				log.Fatalf("flexgrid: write %s: %v", path, err)
			}
			if _, err := grid.LoadSummary(path); err != nil {
				log.Fatalf("flexgrid: self-validation failed: %v", err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}

	if *appendHist != "" {
		if err := grid.AppendHistory(*appendHist, grid.HistoryFromSummary(summary)); err != nil {
			log.Fatalf("flexgrid: append history: %v", err)
		}
		if _, err := grid.ReadHistory(*appendHist); err != nil {
			log.Fatalf("flexgrid: history re-validation failed: %v", err)
		}
		fmt.Printf("appended %s (%d cells) to %s\n", summary.Commit, len(summary.Cells), *appendHist)
	}

	if *compare != "" {
		base, err := grid.LoadSummary(*compare)
		if err != nil {
			log.Fatalf("flexgrid: baseline: %v", err)
		}
		verdict := grid.Compare(base, summary)
		fmt.Print(verdict.Format())
		if !verdict.OK {
			os.Exit(1)
		}
	}
}
