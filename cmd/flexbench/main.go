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
	"flexcast/internal/telemetry"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// command is one parsed command line: the deployments to explore, the
// exploration options, and the schedule seed to replay instead (0:
// explore).
type command struct {
	deps      []chaos.Deployment
	opts      chaos.Options
	reproSeed int64
	telemetry string
}

// parse resolves the command line; the flag set prints its own usage
// errors on stderr.
func parse(stderr io.Writer, args []string) (*command, error) {
	fs := flag.NewFlagSet("flexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		c          command
		protocol   = fs.String("protocol", "all", "flexcast, skeen|distributed, hierarchical|tree, or all")
		execute    = fs.Bool("execute", false, "run the gTPC-C store at every group and audit execution (serializability, invariants, replica digests)")
		profile    = fs.String("profile", "random", "environment profile: random (default) or wan (WAN latency matrix + gTPC-C destination locality)")
		schedules  = fs.Int("schedules", 100, "number of seeded fault schedules per protocol")
		seed       = fs.Int64("seed", 1, "random seed the schedule seeds derive from")
		chaosBug   = fs.Int("chaos-bug", 0, "test-only ordering-bug hook; >0 flips every n-th delivery batch to validate the checker")
		closedLoop = fs.Bool("closed-loop", false, "closed-loop workload (each client issues on completion; denser schedules)")
		messages   = fs.Int("messages", 0, "multicasts per client (0 = default)")
		durable    = fs.Bool("durable", false, "persist every node through the real durable WAL+snapshot backend; crashes abandon the files (half tear the WAL tail) and recovery rebuilds from disk")
		traceSmp   = fs.Int("trace-sample", 0, "lifecycle-trace one multicast in N in virtual time (0 = default 4, negative disables)")
	)
	fs.Int64Var(&c.reproSeed, "repro-seed", 0, "rerun exactly one schedule seed (from a failure report)")
	fs.StringVar(&c.telemetry, "telemetry", "", "serve /metrics (JSON) and /debug/pprof on this address (e.g. 127.0.0.1:8090)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *schedules <= 0 {
		return nil, fmt.Errorf("-schedules must be > 0 (got %d)", *schedules)
	}
	c.opts = chaos.Options{Seed: *seed, Schedules: *schedules, BugFlipEvery: *chaosBug,
		ClosedLoop: *closedLoop, Messages: *messages, Durable: *durable, TraceSample: *traceSmp}
	switch *profile {
	case "", "random":
	case "wan":
		c.opts.Locality = 0.95
	default:
		return nil, fmt.Errorf("unknown profile %q (random or wan)", *profile)
	}
	protos := []deploy.Protocol{deploy.FlexCast, deploy.Skeen, deploy.Hierarchical}
	if strings.ToLower(*protocol) != "all" {
		p, err := deploy.ParseProtocol(*protocol)
		if err != nil {
			return nil, err
		}
		protos = []deploy.Protocol{p}
	}
	for _, p := range protos {
		d, err := chaos.NewDeployment(deploy.Spec{Protocol: p}, *execute)
		if err != nil {
			return nil, err
		}
		c.deps = append(c.deps, d)
	}
	return &c, nil
}

func run(stdout, stderr io.Writer, args []string) int {
	c, err := parse(stderr, args)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(stderr, "flexbench: %v\n", err)
		}
		return 2
	}
	if c.telemetry != "" {
		srv, err := telemetry.Serve(c.telemetry, telemetry.Default)
		if err != nil {
			fmt.Fprintf(stderr, "flexbench: telemetry: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "telemetry on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}
	failed := false
	for _, d := range c.deps {
		start := time.Now()
		if c.reproSeed != 0 {
			res, err := chaos.RunSchedule(d, c.opts, c.reproSeed)
			if err != nil {
				fmt.Fprintf(stderr, "flexbench: chaos %s: %v\n", d.Name, err)
				return 1
			}
			fmt.Fprintf(stdout, "chaos %-12s  seed=%d multicasts=%d deliveries=%d events=%d\n",
				d.Name, res.Seed, res.Multicasts, res.Deliveries, res.Events)
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
		rep, err := chaos.Explore(d, c.opts)
		if err != nil {
			fmt.Fprintf(stderr, "flexbench: chaos %s: %v\n", d.Name, err)
			return 1
		}
		if rep.Tracer != nil {
			// Expose the accumulated stage decomposition on a -telemetry
			// endpoint once this protocol's exploration completes.
			telemetry.Default.RegisterTracer("chaos_"+rep.Deployment, rep.Tracer)
		}
		rep.Print(stdout)
		fmt.Fprintf(stdout, "(%s explored in %v)\n\n", d.Name, time.Since(start).Round(time.Millisecond))
		if rep.Failed() {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
