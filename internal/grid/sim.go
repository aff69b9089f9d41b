package grid

import (
	"fmt"

	"flexcast/internal/chaos"
	"flexcast/internal/deploy"
	"flexcast/internal/sim"
	"flexcast/internal/stats"
	"flexcast/internal/wan"
)

// runSim runs one timed, fault-free chaos schedule — a protocol on the
// virtual-time 12-region WAN under closed-loop gTPC-C clients, the
// paper's §5 setup — from the cell's parameters and flattens the result
// into the cell's metric map. Every figure and table of the paper's
// evaluation is a set of these cells (the paper-* experiments of
// experiments.json), and with "verify" the run is recorded, drained and
// checked against the §2.2 properties, so a violation fails the cell and
// with it the grid run.
//
// Its keys are the ones schedule maps; the paper cells set protocol,
// clients, locality, global_only, flush_every_ms, duration_ms, seed and
// the sim knobs, and unset ones take the paper's defaults (240 clients,
// locality 0.95, 60 virtual seconds). The flush client defaults to the
// prototype's 250 ms garbage-collection period (§4.3) for FlexCast and
// to off for the two baselines; a negative flush_every_ms disables it,
// as for a load cell.
//
// Metrics (per-group keys carry the group id as gNN):
//
//	throughput_tx_s, completed   transactions in the trimmed window
//	destK_pP_ms                  latency of the K-th destination's reply, K 1–3, P 50/90/95/99
//	overhead_pct_gNN             share of received envelopes the group only relayed
//	overhead_{mean,std,max}_pct  over the 12 groups
//	recv_msgs_s_gNN, recv_avg_b_gNN, recv_kb_s_gNN   received traffic
//	sim_events                   simulator events executed
func runSim(cell string, p *cellParams) (map[string]float64, error) {
	d, opt, err := p.schedule(true)
	if err != nil {
		return nil, fmt.Errorf("grid: cell %s: %w", cell, err)
	}
	run := chaos.Measure
	if p.Verify {
		run = chaos.RunSchedule
	}
	res, err := run(d, opt, p.load.Seed)
	if err == nil {
		err = res.Err
	}
	if err != nil {
		return nil, fmt.Errorf("grid: cell %s: %w", cell, err)
	}

	m := map[string]float64{
		"throughput_tx_s": res.Throughput(),
		"completed":       float64(res.Completed),
		"sim_events":      float64(res.Events),
	}
	for k := range res.PerDest {
		rec := &res.PerDest[k]
		if rec.Len() == 0 {
			continue // e.g. no 3-destination transaction fell in a short window
		}
		for _, pct := range []float64{50, 90, 95, 99} {
			m[fmt.Sprintf("dest%d_p%.0f_ms", k+1, pct)] = rec.Percentile(pct) / 1000
		}
	}
	secs := float64(opt.Duration) / 1e6
	var overhead stats.Recorder
	for _, g := range wan.Groups() {
		c := res.Traffic[g]
		pct := c.Overhead() * 100
		overhead.Add(pct)
		m[fmt.Sprintf("overhead_pct_g%02d", g)] = pct
		m[fmt.Sprintf("recv_msgs_s_g%02d", g)] = float64(c.EnvsReceived) / secs
		m[fmt.Sprintf("recv_avg_b_g%02d", g)] = c.AvgReceivedSize()
		m[fmt.Sprintf("recv_kb_s_g%02d", g)] = float64(c.BytesReceived) / secs / 1024
	}
	m["overhead_mean_pct"] = overhead.Mean()
	m["overhead_std_pct"] = overhead.Std()
	m["overhead_max_pct"] = overhead.Max()
	return m, nil
}

// schedule maps a sim or chaos cell's parameters to the deployment and
// options of its chaos schedules: the one place a cell's keys become a
// schedule. A timed (sim) cell gets the paper's 60 virtual seconds and
// FlexCast's 250 ms flush period by default; a chaos cell has no
// duration, its exploration is bounded by the messages per client.
func (p *cellParams) schedule(timed bool) (d chaos.Deployment, opt chaos.Options, err error) {
	name := p.load.Protocol
	if name == "" {
		name = "flexcast"
	}
	proto, err := deploy.ParseProtocol(name)
	if err != nil {
		return d, opt, err
	}
	if p.load.Durable {
		return d, opt, fmt.Errorf("durable is a load parameter: a schedule persists exactly the groups it crashes")
	}
	opt = chaos.Options{
		Seed:          p.load.Seed,
		Schedules:     p.Schedules,
		Clients:       p.load.Clients,
		Messages:      p.Messages,
		ClosedLoop:    p.ClosedLoop,
		FlushEvery:    sim.Time(p.load.FlushEvery.Microseconds()),
		Locality:      p.load.Locality,
		GlobalOnly:    p.load.GlobalOnly,
		ProcCostBase:  sim.Time(p.ProcCostUs),
		ProcCostPerKB: p.ProcCostUsPerKB,
		TraceSample:   p.load.TraceSample,
		BugFlipEvery:  p.ChaosBug,
	}
	if timed {
		opt.Duration = sim.Time(p.load.Duration.Microseconds())
		if opt.Duration == 0 {
			opt.Duration = 60_000_000
		}
		if opt.FlushEvery == 0 && proto == deploy.FlexCast {
			opt.FlushEvery = 250_000
		}
	}
	spec := deploy.Spec{Protocol: proto}
	switch p.Overlay {
	case "":
	case "o1":
		spec.Overlay = wan.O1()
	case "o2":
		spec.Overlay = wan.O2()
	case "t1":
		spec.Tree = wan.T1()
	case "t2":
		spec.Tree = wan.T2()
	case "t3":
		spec.Tree = wan.T3()
	default:
		return d, opt, fmt.Errorf("unknown overlay %q (o1, o2, t1, t2, t3)", p.Overlay)
	}
	if spec.Overlay != nil && proto != deploy.FlexCast || spec.Tree != nil && proto != deploy.Hierarchical {
		return d, opt, fmt.Errorf("overlay %q does not fit protocol %s", p.Overlay, name)
	}
	d, err = chaos.NewDeployment(spec, p.load.Execute)
	return d, opt, err
}
