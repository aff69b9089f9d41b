// Command flexbench regenerates the tables and figures of the FlexCast
// paper's evaluation (Middleware 2023, §5) on the simulated 12-region
// WAN and prints them in the paper's format. It doubles as the
// simulation-testing driver: -mode chaos explores randomized
// fault-injection schedules (crashes, partitions, retransmissions,
// duplication) and checks the safety properties on every schedule.
//
// Usage:
//
//	flexbench -experiment all            # everything, paper-scale (60 virtual s)
//	flexbench -experiment fig6 -scale 0.1
//	flexbench -list
//	flexbench -mode chaos -seed 1 -schedules 100
//	flexbench -mode chaos -protocol flexcast -repro-seed 123456789
//
// Experiments: fig1, fig5 (Table 2), fig6, fig7 (Table 3), fig8,
// fig9 (Table 4), all.
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
	"flexcast/internal/experiments"
	"flexcast/internal/harness"
	"flexcast/internal/telemetry"
)

// printer is the shared shape of all experiment results.
type printer interface {
	Print(w io.Writer)
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("flexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode       = fs.String("mode", "bench", "bench (paper experiments) or chaos (fault-injection exploration)")
		experiment = fs.String("experiment", "all", "which experiment to run: fig1, fig5, fig6, fig7, fig8, fig9, all")
		scale      = fs.Float64("scale", 1.0, "virtual-duration scale (1.0 = the paper's 60 s runs)")
		seed       = fs.Int64("seed", 1, "random seed")
		verify     = fs.Bool("verify", false, "record runs and check the atomic multicast properties (slower)")
		list       = fs.Bool("list", false, "list experiments and exit")

		schedules  = fs.Int("schedules", 100, "chaos: number of seeded fault schedules per protocol")
		protocol   = fs.String("protocol", "all", "chaos: flexcast, skeen|distributed, hierarchical|tree, or all")
		reproSeed  = fs.Int64("repro-seed", 0, "chaos: rerun exactly one schedule seed (from a failure report)")
		chaosBug   = fs.Int("chaos-bug", 0, "chaos: test-only ordering-bug hook; >0 flips every n-th delivery batch to validate the checker")
		closedLoop = fs.Bool("closed-loop", false, "chaos: closed-loop workload (each client issues on completion; denser schedules)")
		messages   = fs.Int("messages", 0, "chaos: multicasts per client (0 = default)")
		execute    = fs.Bool("execute", false, "chaos: run the gTPC-C store at every group and audit execution (serializability, invariants, replica digests)")
		profile    = fs.String("profile", "random", "chaos: environment profile: random (default) or wan (WAN latency matrix + gTPC-C destination locality)")
		durable    = fs.Bool("durable", false, "chaos: persist every node through the real durable WAL+snapshot backend; crashes abandon the files (half tear the WAL tail) and recovery rebuilds from disk")
		traceSmp   = fs.Int("trace-sample", 0, "chaos: lifecycle-trace one multicast in N in virtual time (0 = default 4, negative disables)")
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
	if *mode == "chaos" {
		return runChaos(stdout, stderr, chaosRunConfig{
			protocol: *protocol, seed: *seed, schedules: *schedules, reproSeed: *reproSeed,
			bugEvery: *chaosBug, closedLoop: *closedLoop, messages: *messages,
			execute: *execute, profile: *profile, durable: *durable, traceSample: *traceSmp,
		})
	}
	if *mode != "bench" {
		fmt.Fprintf(stderr, "flexbench: unknown mode %q (bench or chaos)\n", *mode)
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "fig1  Figure 1:  per-group overhead of hierarchical T1, 90% locality")
		fmt.Fprintln(stdout, "fig5  Figure 5 / Table 2: latency per destination across overlays")
		fmt.Fprintln(stdout, "fig6  Figure 6:  throughput vs number of clients, 99% locality")
		fmt.Fprintln(stdout, "fig7  Figure 7 / Table 3: latency per destination across localities")
		fmt.Fprintln(stdout, "fig8  Figure 8:  per-node message cost (histories)")
		fmt.Fprintln(stdout, "fig9  Figure 9 / Table 4: tree overhead across localities")
		fmt.Fprintln(stdout, "all   everything above")
		return 0
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed, Verify: *verify}
	runs := map[string]func() (printer, error){
		"fig1": func() (printer, error) { return experiments.Fig1(opts) },
		"fig5": func() (printer, error) { return experiments.Fig5Table2(opts) },
		"fig6": func() (printer, error) { return experiments.Fig6(opts) },
		"fig7": func() (printer, error) { return experiments.Fig7Table3(opts) },
		"fig8": func() (printer, error) { return experiments.Fig8(opts) },
		"fig9": func() (printer, error) { return experiments.Fig9Table4(opts) },
	}

	order := []string{"fig1", "fig5", "fig6", "fig7", "fig8", "fig9"}
	var selected []string
	switch {
	case *experiment == "all":
		selected = order
	default:
		if _, ok := runs[*experiment]; !ok {
			fmt.Fprintf(stderr, "flexbench: unknown experiment %q (use -list)\n", *experiment)
			return 2
		}
		selected = []string{*experiment}
	}

	for _, name := range selected {
		start := time.Now()
		res, err := runs[name]()
		if err != nil {
			fmt.Fprintf(stderr, "flexbench: %s: %v\n", name, err)
			return 1
		}
		res.Print(stdout)
		fmt.Fprintf(stdout, "(%s computed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return 0
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

// chaosRunConfig bundles the chaos-mode flags.
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
