package grid

import (
	"fmt"
	"regexp"
	"strings"

	"flexcast/internal/chaos"
)

// runChaos explores a chaos cell's seeded fault schedules of one
// protocol (chaos.Explore) — crashes, partitions, retransmissions and
// duplicates, every schedule checked against the paper's §2.2
// properties — or, with reproSeed, replays that one schedule
// (chaos.RunSchedule). A violation fails the cell, and with it the grid
// run, with a *Violation.
//
// The keys it reads are protocol, seed, clients, execute, durable,
// locality (> 0: the WAN latency matrix and gTPC-C destinations),
// flush_every_ms (the flush client's period) and trace_sample, plus
// schedules, closed_loop, messages and chaos_bug. A
// chaos cell is never timed, so duration_ms, warmup_ms, groups and
// workers do not apply: the messages per client bound an exploration.
//
// Metrics (sums over the schedules; stages in simulated nanoseconds):
//
//	schedules, multicasts, deliveries, fast_reads, lease_refusals, events
//	retransmits, duplicates, partition_hits, crashes, parked, torn_tails
//	e2e_p50_ns, e2e_p99_ns, stage_<stage>_p50_ns, stage_<stage>_p99_ns
func runChaos(cell string, p *cellParams, reproSeed int64) (map[string]float64, error) {
	d, opt, err := p.schedule(false)
	if err != nil {
		return nil, fmt.Errorf("grid: cell %s: %w", cell, err)
	}
	var rep *chaos.Report
	if reproSeed == 0 {
		rep, err = chaos.Explore(d, opt)
	} else {
		var res *chaos.ScheduleResult
		if res, err = chaos.RunSchedule(d, opt, reproSeed); err == nil {
			rep = &chaos.Report{Deployment: d.Protocol.String(), Schedules: 1, Counts: res.Counts, Stages: res.Stages}
			if res.Err != nil {
				rep.Violations = []chaos.ScheduleResult{*res}
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("grid: cell %s: %w", cell, err)
	}
	if rep.Failed() {
		return nil, &Violation{Cell: cell, Report: rep}
	}
	f := rep.Faults
	m := map[string]float64{
		"schedules":      float64(rep.Schedules),
		"multicasts":     float64(rep.Multicasts),
		"deliveries":     float64(rep.Deliveries),
		"fast_reads":     float64(rep.FastReads),
		"lease_refusals": float64(rep.LeaseRefusals),
		"events":         float64(rep.Events),
		"retransmits":    float64(f.Retransmits),
		"duplicates":     float64(f.Duplicates),
		"partition_hits": float64(f.PartitionHits),
		"crashes":        float64(f.Crashes),
		"parked":         float64(f.Parked),
		"torn_tails":     float64(f.TornTails),
	}
	if st := rep.Stages; st != nil {
		m["e2e_p50_ns"] = float64(st.E2E.P50)
		m["e2e_p99_ns"] = float64(st.E2E.P99)
		for _, sg := range st.Stages {
			m["stage_"+sg.Stage+"_p50_ns"] = float64(sg.P50)
			m["stage_"+sg.Stage+"_p99_ns"] = float64(sg.P99)
		}
	}
	return m, nil
}

// Violation is the error of a chaos cell whose schedules violated an
// invariant; its text is the exploration report.
type Violation struct {
	Cell   string
	Report *chaos.Report
}

func (v *Violation) Error() string {
	var b strings.Builder
	v.Report.Print(&b)
	return "invariant violation:\n" + strings.TrimSuffix(b.String(), "\n")
}

// Reproduce renders, one per violating schedule, the flexgrid command
// that replays it from the spec file at config.
func (v *Violation) Reproduce(config string) []string {
	lines := make([]string, len(v.Report.Violations))
	for i, s := range v.Report.Violations {
		lines[i] = fmt.Sprintf("reproduce: flexgrid -config %s -cells '^%s$' -repro-seed %d", config, regexp.QuoteMeta(v.Cell), s.Seed)
	}
	return lines
}
