package grid

import (
	"fmt"

	"flexcast/internal/harness"
	"flexcast/internal/sim"
	"flexcast/internal/stats"
	"flexcast/internal/wan"
)

// runFig5Verify replays the paper's fig5 latency configuration — the
// shape that used to form the fresh-request staircase ring (DESIGN.md
// §4 deviation 8) — with full trace verification: FlexCast on O1, 240
// closed-loop clients, global-only gTPC-C at 90 % locality, recording
// on, and trace.CheckAll (integrity, agreement, prefix order, global
// acyclicity, minimality) after the run. Any violation fails the cell,
// and with it the grid run: this is the `-verify` audit promoted into
// the experiment grid so the CI gate rings if the ring ever comes back.
//
// fig5_scale multiplies the paper's 60-virtual-second duration
// (default 0.02, the historical repro's scale; a 2-virtual-second
// floor applies, exactly like flexbench -scale). fig5_seeds widens
// each repeat into a consecutive-seed sweep (default 1).
func runFig5Verify(cell string, p *cellParams) (map[string]float64, error) {
	scale := p.Fig5Scale
	if scale == 0 {
		scale = 0.02
	}
	seeds := p.Fig5Seeds
	if seeds == 0 {
		seeds = 1
	}
	duration := sim.Time(60_000_000 * scale)
	if duration < 2_000_000 {
		duration = 2_000_000
	}
	flushEvery := sim.Time(250_000)
	if p.load.FlushEvery > 0 {
		flushEvery = sim.Time(p.load.FlushEvery.Microseconds())
	}
	locality := p.load.Locality
	if locality == 0 {
		locality = 0.90
	}
	clients := p.load.Clients
	if clients == 0 {
		clients = 240
	}
	var lat1 stats.Recorder
	var completed, windowSecs, events float64
	for i := 0; i < seeds; i++ {
		seed := p.load.Seed + int64(i)
		res, err := harness.Run(harness.Config{
			Protocol:   harness.FlexCast,
			Overlay:    wan.O1(),
			Locality:   locality,
			NumClients: clients,
			GlobalOnly: true,
			Duration:   duration,
			TrimFrac:   0.1,
			Seed:       seed,
			FlushEvery: flushEvery,
			Record:     true,
		})
		if err != nil {
			return nil, fmt.Errorf("grid: cell %s: seed %d: %w", cell, seed, err)
		}
		if err := res.Trace.CheckAll(true); err != nil {
			return nil, fmt.Errorf("grid: cell %s: seed %d violates the multicast spec: %w", cell, seed, err)
		}
		completed += float64(res.Completed)
		windowSecs += res.WindowSecs
		events += float64(res.Events)
		if len(res.PerDest) > 0 {
			lat1.Add(res.PerDest[0].Percentile(50))
		}
	}
	m := map[string]float64{
		"fig5_verified_runs": float64(seeds),
		"latency_p50_us":     lat1.Median(),
		"sim_events":         events,
	}
	if windowSecs > 0 {
		m["throughput_tx_s"] = completed / windowSecs
	}
	return m, nil
}
