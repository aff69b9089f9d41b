package grid

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// HistorySchema tags one BENCH_history.jsonl line.
const HistorySchema = "flexgrid-history/v1"

// HistoryEntry is one line of the committed perf trajectory: one grid
// run reduced to provenance plus each cell's metric medians. Raw
// repeats and IQRs stay in the run's own summary artifact; the
// history keeps only what trend plots and bisection need.
type HistoryEntry struct {
	Schema string `json:"schema"`
	Commit string `json:"commit"`
	Date   string `json:"date"`
	Spec   string `json:"spec,omitempty"`
	// Host is the summary's host map: go version, os, arch, cpus,
	// gomaxprocs. Lines written before it was recorded have none.
	Host map[string]any `json:"host,omitempty"`
	// Cells maps cell name → metric key → median.
	Cells map[string]map[string]float64 `json:"cells"`
}

// HistoryFromSummary reduces a summary to its history line.
func HistoryFromSummary(s *Summary) HistoryEntry {
	e := HistoryEntry{
		Schema: HistorySchema,
		Commit: s.Commit,
		Date:   s.Date,
		Spec:   s.Spec,
		Host:   s.Host,
		Cells:  make(map[string]map[string]float64, len(s.Cells)),
	}
	for _, c := range s.Cells {
		ms := make(map[string]float64, len(c.Metrics))
		for k, m := range c.Metrics {
			ms[k] = m.Median
		}
		e.Cells[c.Name] = ms
	}
	return e
}

// Validate checks one history line.
func (e *HistoryEntry) Validate() error {
	if e.Schema != HistorySchema {
		return fmt.Errorf("history schema %q, want %q", e.Schema, HistorySchema)
	}
	if e.Commit == "" {
		return fmt.Errorf("history entry without commit")
	}
	if e.Date == "" {
		return fmt.Errorf("history entry without date")
	}
	if len(e.Cells) == 0 {
		return fmt.Errorf("history entry with no cells")
	}
	for cell, ms := range e.Cells {
		if len(ms) == 0 {
			return fmt.Errorf("history cell %q with no metrics", cell)
		}
	}
	return nil
}

// AppendHistory folds one entry onto the history file (one JSON
// object per line), creating it if missing. It refuses an entry from a
// dirty tree: a trajectory point must name the commit that produced it.
func AppendHistory(path string, e HistoryEntry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if strings.HasSuffix(e.Commit, "-dirty") {
		return fmt.Errorf("history entry from a modified tree (%s): commit first, then re-run", e.Commit)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return err
	}
	return f.Sync()
}

// ReadHistory reads and validates every line of a history file.
func ReadHistory(path string) ([]HistoryEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []HistoryEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	ln := 0
	for sc.Scan() {
		ln++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("grid: %s line %d: %w", path, ln, err)
		}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("grid: %s line %d: %w", path, ln, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
