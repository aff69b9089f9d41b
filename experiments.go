package flexcast

import (
	"flexcast/internal/chaos"
	"flexcast/internal/deploy"
)

// Experiment configuration and results for the paper's evaluation: a
// protocol deployed on the simulated 12-region WAN under the gTPC-C
// workload — a timed, fault-free schedule of the simulation-testing
// explorer. The per-figure configurations are the paper-* experiments of
// experiments.json.
type (
	// ExperimentConfig parameterizes one simulated run; its Duration
	// defaults to the paper's 60 virtual seconds, its other fields to
	// the paper's latency configuration (240 clients, locality 0.95).
	ExperimentConfig = chaos.Options
	// ExperimentResult carries latencies, throughput and traffic counters.
	ExperimentResult = chaos.ScheduleResult
	// Protocol selects the protocol under test in experiments.
	Protocol = deploy.Protocol
)

// Protocols under evaluation (Table 1 of the paper).
const (
	// FlexCast is the paper's genuine C-DAG protocol.
	FlexCast = deploy.FlexCast
	// Distributed is Skeen's genuine fully connected protocol.
	Distributed = deploy.Skeen
	// Hierarchical is the non-genuine tree protocol.
	Hierarchical = deploy.Hierarchical
)

// RunExperiment executes one simulated experiment of protocol p on the
// paper's overlays (O1, T1), seeded by cfg.Seed.
func RunExperiment(p Protocol, cfg ExperimentConfig) (*ExperimentResult, error) {
	return runExperiment(p, cfg, chaos.Measure)
}

// RunExperimentChecked additionally records the run, drains it and
// verifies the atomic multicast properties (Validity, Agreement,
// Integrity, Prefix Order, Acyclic Order, and — for the genuine
// protocols — Minimality); a violation is the returned error.
func RunExperimentChecked(p Protocol, cfg ExperimentConfig) (*ExperimentResult, error) {
	res, err := runExperiment(p, cfg, chaos.RunSchedule)
	if err == nil && res.Err != nil {
		return res, res.Err
	}
	return res, err
}

func runExperiment(p Protocol, cfg ExperimentConfig, run func(chaos.Deployment, chaos.Options, int64) (*chaos.ScheduleResult, error)) (*ExperimentResult, error) {
	d, err := chaos.NewDeployment(deploy.Spec{Protocol: p}, false)
	if err != nil {
		return nil, err
	}
	if cfg.Duration == 0 {
		cfg.Duration = 60_000_000
	}
	return run(d, cfg, cfg.Seed)
}
