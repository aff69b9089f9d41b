// Command flexbench is the simulation-testing driver: it explores
// randomized fault-injection schedules (crashes, partitions,
// retransmissions, duplication) against the protocol engines on the
// virtual-time simulator and checks the safety properties on every
// schedule. The exit code is the verdict: 0 only when every explored
// schedule upheld every invariant. (The paper's figures and tables are
// grid cells: flexgrid -cells '^paper-'.)
//
// Usage:
//
//	flexbench -seed 1 -schedules 100
//	flexbench -protocol flexcast -repro-seed 123456789
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"flexcast/internal/chaos"
	"flexcast/internal/deploy"
	"flexcast/internal/harness"
	"flexcast/internal/telemetry"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("flexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed       = fs.Int64("seed", 1, "random seed the schedule seeds derive from")
		schedules  = fs.Int("schedules", 100, "number of seeded fault schedules per protocol")
		protocol   = fs.String("protocol", "all", "flexcast, skeen|distributed, hierarchical|tree, or all")
		reproSeed  = fs.Int64("repro-seed", 0, "rerun exactly one schedule seed (from a failure report)")
		chaosBug   = fs.Int("chaos-bug", 0, "test-only ordering-bug hook; >0 flips every n-th delivery batch to validate the checker")
		closedLoop = fs.Bool("closed-loop", false, "closed-loop workload (each client issues on completion; denser schedules)")
		messages   = fs.Int("messages", 0, "multicasts per client (0 = default)")
		execute    = fs.Bool("execute", false, "run the gTPC-C store at every group and audit execution (serializability, invariants, replica digests)")
		profile    = fs.String("profile", "random", "environment profile: random (default) or wan (WAN latency matrix + gTPC-C destination locality)")
		durable    = fs.Bool("durable", false, "persist every node through the real durable WAL+snapshot backend; crashes abandon the files (half tear the WAL tail) and recovery rebuilds from disk")
		traceSmp   = fs.Int("trace-sample", 0, "lifecycle-trace one multicast in N in virtual time (0 = default 4, negative disables)")
		telem      = fs.String("telemetry", "", "serve /metrics (JSON) and /debug/pprof on this address (e.g. 127.0.0.1:8090)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *telem != "" {
		srv, err := telemetry.Serve(*telem, telemetry.Default)
		if err != nil {
			fmt.Fprintf(stderr, "flexbench: telemetry: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}
	return runChaos(stdout, stderr, chaosRunConfig{
		protocol: *protocol, seed: *seed, schedules: *schedules, reproSeed: *reproSeed,
		bugEvery: *chaosBug, closedLoop: *closedLoop, messages: *messages,
		execute: *execute, profile: *profile, durable: *durable, traceSample: *traceSmp,
	})
}

// chaosProtocols resolves the -protocol selector: one protocol name, or
// all.
func chaosProtocols(sel string) ([]deploy.Protocol, error) {
	if strings.ToLower(sel) == "all" {
		return []deploy.Protocol{deploy.FlexCast, deploy.Skeen, deploy.Hierarchical}, nil
	}
	p, err := deploy.ParseProtocol(sel)
	return []deploy.Protocol{p}, err
}

// chaosRunConfig bundles the flags.
type chaosRunConfig struct {
	protocol    string
	seed        int64
	schedules   int
	reproSeed   int64
	bugEvery    int
	closedLoop  bool
	messages    int
	execute     bool
	profile     string
	durable     bool
	traceSample int
}

// runChaos drives the fault-injection explorer. The exit code reports
// safety: 0 only when every explored schedule upheld every invariant.
func runChaos(stdout, stderr io.Writer, rc chaosRunConfig) int {
	protocol, seed, schedules, reproSeed := rc.protocol, rc.seed, rc.schedules, rc.reproSeed
	protos, err := chaosProtocols(protocol)
	if err != nil {
		fmt.Fprintf(stderr, "flexbench: %v\n", err)
		return 2
	}
	if schedules <= 0 {
		fmt.Fprintf(stderr, "flexbench: -schedules must be > 0 (got %d)\n", schedules)
		return 2
	}
	opts := chaos.Options{Seed: seed, Schedules: schedules, BugFlipEvery: rc.bugEvery,
		ClosedLoop: rc.closedLoop, Messages: rc.messages, Durable: rc.durable,
		TraceSample: rc.traceSample}
	switch rc.profile {
	case "", "random":
	case "wan":
		harness.ApplyWANProfile(&opts, 0.95, rc.execute)
	default:
		fmt.Fprintf(stderr, "flexbench: unknown profile %q (random or wan)\n", rc.profile)
		return 2
	}
	failed := false
	for _, p := range protos {
		cfg := harness.ChaosConfig{Protocol: p, Options: opts, Execute: rc.execute}
		start := time.Now()
		if reproSeed != 0 {
			res, err := harness.ReplayChaos(cfg, reproSeed)
			if err != nil {
				fmt.Fprintf(stderr, "flexbench: chaos %s: %v\n", p, err)
				return 1
			}
			fmt.Fprintf(stdout, "chaos %-12s  seed=%d multicasts=%d deliveries=%d events=%d\n",
				p, res.Seed, res.Multicasts, res.Deliveries, res.Events)
			if res.Err != nil {
				failed = true
				fmt.Fprintf(stdout, "  INVARIANT VIOLATION: %v\n", res.Err)
				for _, line := range res.FaultTrace {
					fmt.Fprintf(stdout, "    %s\n", line)
				}
			} else {
				fmt.Fprintf(stdout, "  invariants: OK\n")
			}
			continue
		}
		rep, err := harness.RunChaos(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "flexbench: chaos %s: %v\n", p, err)
			return 1
		}
		if rep.Tracer != nil {
			// Expose the accumulated stage decomposition on a -telemetry
			// endpoint once this protocol's exploration completes.
			telemetry.Default.RegisterTracer("chaos_"+rep.Deployment, rep.Tracer)
		}
		rep.Print(stdout)
		fmt.Fprintf(stdout, "(%s explored in %v)\n\n", p, time.Since(start).Round(time.Millisecond))
		if rep.Failed() {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
