package flexcast

import "flexcast/internal/harness"

// Experiment configuration and results for the paper's evaluation: a
// protocol deployed on the simulated 12-region WAN under the gTPC-C
// workload. The per-figure configurations are the paper-* experiments of
// experiments.json.
type (
	// ExperimentConfig parameterizes one simulated run.
	ExperimentConfig = harness.Config
	// ExperimentResult carries latencies, throughput and traffic counters.
	ExperimentResult = harness.Result
	// Protocol selects the protocol under test in experiments.
	Protocol = harness.Protocol
)

// Protocols under evaluation (Table 1 of the paper).
const (
	// FlexCast is the paper's genuine C-DAG protocol.
	FlexCast = harness.FlexCast
	// Distributed is Skeen's genuine fully connected protocol.
	Distributed = harness.Distributed
	// Hierarchical is the non-genuine tree protocol.
	Hierarchical = harness.Hierarchical
)

// RunExperiment executes one simulated experiment.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	return harness.Run(cfg)
}

// RunExperimentChecked additionally records the run and verifies the
// atomic multicast properties (Validity, Agreement, Integrity, Prefix
// Order, Acyclic Order, and — for the genuine protocols — Minimality).
func RunExperimentChecked(cfg ExperimentConfig) (*ExperimentResult, error) {
	return harness.RunChecked(cfg)
}
