package main

import (
	"time"

	"flexcast/internal/loadgen"
)

// A workload is one named traffic mix on one deployment. The five
// wall-clock workloads share one load shape — a single OS process on a
// 2-core machine, 2 client processes with one transport endpoint each,
// 16 closed-loop sessions multiplexed on each endpoint (or one open-loop
// issuer each), FlexCast over the paper's 12 regions and overlay O1,
// every transaction executed against the store and audited at the end —
// and differ in exactly the lines below; smr-sim is the simulator
// workload (smrsim.go).
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text; README.md the long form).
	why string
	// configure applies the workload's differences to the common shape;
	// nil for smr-sim.
	configure func(c *loadgen.Config)
	// layers lists the layers that run on this workload beyond the ones
	// every wall-clock workload has; a per-layer metric of a layer that
	// does not run here reads 0.
	codec, durable, reads, sim bool
	// flushEvery is the ledger's §4.3 flush period in transactions:
	// loadgen flushes every 500 ms of wall time, the ledger has no wall
	// time, so each workload flushes after about as many transactions as
	// it completes in 500 ms on the 2-core reference machine. A constant,
	// not a measurement, so that the ledger's counts repeat exactly.
	flushEvery int
}

const (
	clients       = 2
	workers       = 16
	openLoopRate  = 1500 // per client process: 3000 tx/s offered
	groupsInPaper = 12
	traceSample   = 16
	readPct       = 50
	replicas      = 3
)

var workloads = []workload{
	{
		name: "local-inmem",
		why:  "CPU-bound on both cores with no codec, sockets, disk or replicas: runtime queues, core's local fast path and store.Apply; the bypass for codec, transport, durable and read-path changes",
		configure: func(c *loadgen.Config) {
			c.Transport, c.Locality = "inmem", 0.95
		},
		flushEvery: 18000,
	},
	{
		name: "global-tcp",
		why:  "every transaction multi-group and every hop a real loopback frame: codec, TCP transport, core's global path and history merge dominate; the bypass for durable and read-path changes",
		configure: func(c *loadgen.Config) {
			c.Transport, c.GlobalOnly = "tcp", true
		},
		codec:      true,
		flushEvery: 14000,
	},
	{
		name: "wan-open",
		why:  "the paper's latency configuration: open loop at 3000 tx/s over links delayed by the 12-region RTT matrix, machine ~90% idle, so latency is delay x protocol steps + batching waits, not CPU",
		configure: func(c *loadgen.Config) {
			c.Transport, c.Locality, c.Rate = "wan", 0.90, openLoopRate
		},
		flushEvery: 1500,
	},
	{
		name: "durable",
		why:  "local-inmem traffic behind the WAL + snapshot backend, so the throughput gap to local-inmem is the durable layer; ends with kill-image recovery and digest verification",
		configure: func(c *loadgen.Config) {
			c.Transport, c.Locality, c.Durable = "inmem", 0.95, true
		},
		durable:    true,
		flushEvery: 5500,
	},
	{
		name: "read-mix",
		why:  "local-inmem traffic with half of all session iterations served as lease-gated follower reads on 3 replicas per group: TryRead beside Apply, and log shipping paid by the write path",
		configure: func(c *loadgen.Config) {
			c.Transport, c.Locality = "inmem", 0.95
			c.ReadPct, c.Replicas, c.FollowerReads = readPct, replicas, true
		},
		reads:      true,
		flushEvery: 9000,
	},
	{
		name: "smr-sim",
		why:  "4 groups x 3 Paxos replicas on the deterministic simulator, the only place internal/smr and internal/paxos run: wall-clock speed of propose, decide, apply on one thread",
		sim:  true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// loadConfig is the common load shape with the workload's differences
// applied. traced selects the lifecycle tracer; durableDir is where a
// durable workload persists.
func (w *workload) loadConfig(seed int64, warm, window time.Duration, traced bool, durableDir string) loadgen.Config {
	c := loadgen.Config{
		Protocol:      "flexcast",
		Groups:        groupsInPaper,
		Clients:       clients,
		Workers:       workers,
		Execute:       true,
		MaxBatch:      ledgerMaxBatch,
		FlushInterval: 500 * time.Microsecond,
		FlushEvery:    500 * time.Millisecond,
		Warmup:        warm,
		Duration:      window,
		Seed:          seed,
		StoreSeed:     seed,
		TraceSample:   -1,
		DurableDir:    durableDir,
	}
	if traced {
		c.TraceSample = traceSample
	}
	w.configure(&c)
	return c
}

// ledgerConfig derives the workload's ledger: the same stream and the
// layers that run on it.
func (w *workload) ledgerConfig(seed int64, txs int, durableDir string) ledgerConfig {
	c := w.loadConfig(seed, 0, 0, false, "")
	// Fill supplies the defaults the workload leaves to loadgen (the
	// global-only stream's locality); the common shape always validates.
	if err := c.Fill(); err != nil {
		panic(err)
	}
	lc := ledgerConfig{
		seed:       seed,
		txs:        txs,
		locality:   c.Locality,
		globalOnly: c.GlobalOnly,
		protocol:   "flexcast",
		flushEvery: w.flushEvery,
		codec:      w.codec,
		readPct:    c.ReadPct,
		spans:      true,
	}
	if c.Replicas > 1 {
		lc.followers = c.Replicas - 1
	}
	if w.durable {
		lc.durableDir = durableDir
	}
	return lc
}
