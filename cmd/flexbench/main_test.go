package main

import (
	"io"
	"strings"
	"testing"

	"flexcast/internal/chaos"
)

// TestReproduceLineReplaysTheViolation passes the first reproduce
// command a failing exploration prints back through flexbench's flag
// set: the schedule it names must fail with the very error it failed
// with during exploration. The exploration is durable, so a reproduce
// line that dropped -durable would replay a different schedule.
func TestReproduceLineReplaysTheViolation(t *testing.T) {
	var out strings.Builder
	args := []string{"-protocol", "flexcast", "-schedules", "5", "-durable", "-chaos-bug", "1"}
	if code := run(&out, io.Discard, args); code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out.String())
	}
	lines := strings.Split(out.String(), "\n")
	for i, line := range lines {
		_, repro, ok := strings.Cut(line, "reproduce: flexbench ")
		if !ok {
			continue
		}
		_, want, _ := strings.Cut(lines[i-1], ": ") // "  seed N: <violation>"
		c, err := parse(io.Discard, strings.Fields(repro))
		if err != nil {
			t.Fatalf("%q: %v", repro, err)
		}
		if len(c.deps) != 1 || c.reproSeed == 0 {
			t.Fatalf("%q names %d deployments, seed %d", repro, len(c.deps), c.reproSeed)
		}
		res, err := chaos.RunSchedule(c.deps[0], c.opts, c.reproSeed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err == nil || res.Err.Error() != want {
			t.Fatalf("%q replayed %v, exploration reported %s", repro, res.Err, want)
		}
		return
	}
	t.Fatalf("no reproduce line printed:\n%s", out.String())
}
