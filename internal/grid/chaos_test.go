package grid

import (
	"errors"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"flexcast/internal/chaos"
	"flexcast/internal/deploy"
)

// TestChaosCellMatchesExplore runs the committed chaos-durable cell of
// FlexCast and the exploration it stands for, called directly: the
// cell's metrics are the report's fields, one for one.
func TestChaosCellMatchesExplore(t *testing.T) {
	spec, err := LoadSpec("../../bench/experiments-chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := RunSpec(spec, Options{Filter: regexp.MustCompile(`^chaos-durable/protocol=flexcast$`)})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for k, m := range sum.Cells[0].Metrics {
		got[k] = m.Median
	}

	d, err := chaos.NewDeployment(deploy.Spec{Protocol: deploy.FlexCast}, false)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := chaos.Explore(d, chaos.Options{Seed: 4, Schedules: 10})
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Faults
	want := map[string]float64{
		"schedules": float64(rep.Schedules), "multicasts": float64(rep.Multicasts),
		"deliveries": float64(rep.Deliveries), "fast_reads": float64(rep.FastReads),
		"lease_refusals": float64(rep.LeaseRefusals), "events": float64(rep.Events),
		"retransmits": float64(f.Retransmits), "duplicates": float64(f.Duplicates),
		"partition_hits": float64(f.PartitionHits), "crashes": float64(f.Crashes),
		"parked": float64(f.Parked), "torn_tails": float64(f.TornTails),
		"e2e_p50_ns": float64(rep.Stages.E2E.P50), "e2e_p99_ns": float64(rep.Stages.E2E.P99),
	}
	for _, sg := range rep.Stages.Stages {
		want["stage_"+sg.Stage+"_p50_ns"] = float64(sg.P50)
		want["stage_"+sg.Stage+"_p99_ns"] = float64(sg.P99)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cell metrics differ from the exploration's report:\n got %v\nwant %v", got, want)
	}
	// The exploration is a function of its seed: these counts are pinned.
	if rep.Multicasts != 350 || rep.Deliveries != 2509 || rep.Events != 25371 || f.TornTails != 13 {
		t.Fatalf("exploration moved: %+v", rep.Counts)
	}
}

// TestChaosCellReproduce fails a closed-loop chaos cell with the
// checker's injected ordering bug, then runs each reproduce line it
// prints the way flexgrid would: the named schedule must fail again with
// the very error it failed with during the exploration. A replay that
// lost a key of the cell (closed_loop, say) would run a different
// schedule.
func TestChaosCellReproduce(t *testing.T) {
	spec := testSpec(t, `{
		"schema": "flexgrid/experiments/v1",
		"experiments": [
			{"name": "bug", "kind": "chaos", "repeats": 1,
			 "config": {"protocol": "flexcast", "schedules": 5, "closed_loop": true, "chaos_bug": 1}},
			{"name": "paper", "kind": "sim", "repeats": 1, "config": {"duration_ms": 100}}
		]
	}`)
	_, err := RunSpec(spec, Options{})
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("a cell with an injected ordering bug returned %v, want a violation", err)
	}
	lines := v.Reproduce("spec.json")
	if len(lines) != len(v.Report.Violations) || len(lines) == 0 {
		t.Fatalf("%d reproduce lines for %d violations", len(lines), len(v.Report.Violations))
	}
	line := regexp.MustCompile(`^reproduce: flexgrid -config spec\.json -cells '([^']*)' -repro-seed (-?\d+)$`)
	for i, l := range lines {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("malformed reproduce line %q", l)
		}
		seed, _ := strconv.ParseInt(m[2], 10, 64)
		_, err := RunSpec(spec, Options{Filter: regexp.MustCompile(m[1]), ReproSeed: seed})
		var r *Violation
		if !errors.As(err, &r) {
			t.Fatalf("%q replayed %v, want a violation", l, err)
		}
		want := v.Report.Violations[i]
		if got := r.Report.Violations[0]; got.Seed != seed || got.Err.Error() != want.Err.Error() {
			t.Fatalf("%q replayed seed %d: %v; the exploration's seed %d failed with %v", l, got.Seed, got.Err, want.Seed, want.Err)
		}
	}

	// A replay runs exactly one chaos cell.
	for label, filter := range map[string]string{"no cell": `^none$`, "two cells": `.`, "a sim cell": `^paper$`} {
		if _, err := RunSpec(spec, Options{Filter: regexp.MustCompile(filter), ReproSeed: 1}); err == nil {
			t.Errorf("replay of %s accepted", label)
		}
	}
}

// TestScheduleCellsRejectDurable: a chaos or sim schedule persists
// exactly the groups it crashes, so a cell that asks for durable fails
// instead of ignoring it.
func TestScheduleCellsRejectDurable(t *testing.T) {
	for _, kind := range []string{"chaos", "sim"} {
		_, err := runCell(Cell{Name: "c", Kind: kind, Params: map[string]any{"durable": true}}, 0, 0)
		if err == nil || !strings.Contains(err.Error(), "durable is a load parameter") {
			t.Errorf("%s cell with durable: %v", kind, err)
		}
	}
}

// TestLoadCellsRejectChaosKeys: the chaos keys mean nothing to a load
// run, so a load cell that names one fails instead of ignoring it.
func TestLoadCellsRejectChaosKeys(t *testing.T) {
	for _, key := range []string{"schedules", "closed_loop", "messages", "chaos_bug"} {
		var v any = 1
		if key == "closed_loop" {
			v = true
		}
		_, err := runCell(Cell{Name: "c", Kind: "load", Params: map[string]any{key: v}}, 0, 0)
		if err == nil || !strings.Contains(err.Error(), "chaos parameters") {
			t.Errorf("load cell with %s: %v", key, err)
		}
	}
}
