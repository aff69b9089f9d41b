package loadgen

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"strconv"
	"time"
)

// knob is the one definition of a load-run parameter: the flexload flag
// that sets it, the JSON key it travels under (flexgrid cell parameters
// in, run artefacts out), the unit a duration's JSON number is in, the
// flag help, and the Config field it lives in (field returns a pointer
// to it; its Go type selects the flag and JSON handling). AddFlags,
// Config.UnmarshalJSON and Config.MarshalJSON all iterate knobs, so
// adding a parameter is one Config field plus one row here.
type knob struct {
	flag, key string
	unit      time.Duration // durations only: the unit of the JSON number
	help      string
	field     func(*Config) any
	// parseFlag, when set, replaces the flag's default parsing.
	parseFlag func(*Config, string) error
}

var knobs = []knob{
	{flag: "transport", key: "transport", field: func(c *Config) any { return &c.Transport },
		help: "transport: inmem, tcp (loopback) or wan (in-memory with inter-region delays)"},
	{flag: "protocol", key: "protocol", field: func(c *Config) any { return &c.Protocol },
		help: "protocol: flexcast, skeen, hierarchical"},
	{flag: "groups", key: "groups", field: func(c *Config) any { return &c.Groups },
		help: "number of groups (12: the paper's WAN set)"},
	{flag: "clients", key: "clients", field: func(c *Config) any { return &c.Clients },
		help: "client processes"},
	{flag: "workers", key: "workers", field: func(c *Config) any { return &c.Workers },
		help: "concurrent closed-loop sessions per client process"},
	{flag: "rate", key: "rate", field: func(c *Config) any { return &c.Rate },
		help: "open-loop rate per client process in tx/s (0 = closed loop)"},
	{flag: "max-outstanding", key: "max_outstanding", field: func(c *Config) any { return &c.MaxOutstanding },
		help: "open-loop in-flight cap per client process; issuance beyond it is shed"},
	{flag: "flush-every", key: "flush_every_ms", unit: time.Millisecond, field: func(c *Config) any { return &c.FlushEvery },
		help: "period of the §4.3 flush/garbage-collection client (negative disables)"},
	{flag: "warmup", key: "warmup_ms", unit: time.Millisecond, field: func(c *Config) any { return &c.Warmup },
		help: "warm-up before the measurement window"},
	{flag: "duration", key: "duration_ms", unit: time.Millisecond, field: func(c *Config) any { return &c.Duration },
		help: "measurement window"},
	{flag: "batch", key: "batch", field: func(c *Config) any { return &c.MaxBatch },
		help: "max envelopes per runtime batch (1 disables batching)"},
	{flag: "flush-interval", key: "flush_interval_us", unit: time.Microsecond, field: func(c *Config) any { return &c.FlushInterval },
		help: "adaptive batching's flush-interval ceiling (with -adaptive; static nodes flush at chunk end)"},
	{flag: "payload", key: "payload", field: func(c *Config) any { return &c.PayloadSize },
		help: "payload bytes (0 = gTPC-C sizes)"},
	{flag: "locality", key: "locality", field: func(c *Config) any { return &c.Locality },
		help: "gTPC-C locality rate"},
	{flag: "global-only", key: "global_only", field: func(c *Config) any { return &c.GlobalOnly },
		help: "multi-group transactions only"},
	{flag: "seed", key: "seed", field: func(c *Config) any { return &c.Seed },
		help: "workload seed"},
	{flag: "timeout", key: "timeout_ms", unit: time.Millisecond, field: func(c *Config) any { return &c.Timeout },
		help: "per-transaction timeout; exceeding it fails the run"},
	{flag: "execute", key: "execute", field: func(c *Config) any { return &c.Execute },
		help: "execute the gTPC-C store at every group (per-type stats, cross-shard invariant digest)"},
	{flag: "store-seed", key: "store_seed", field: func(c *Config) any { return &c.StoreSeed },
		help: "store population seed (0 = workload seed)"},
	{flag: "read-pct", key: "read_pct", field: func(c *Config) any { return &c.ReadPct },
		help: "percent of iterations served as fast-path local reads (requires -execute)"},
	{flag: "replicas", key: "replicas", field: func(c *Config) any { return &c.Replicas },
		help: "smr-style replication degree per group (>= 2 deploys follower read replicas; requires -execute)"},
	{flag: "follower-reads", key: "follower_reads", field: func(c *Config) any { return &c.FollowerReads },
		help: "serve reads from lease-holding follower replicas (requires -replicas >= 2; off: remote leader reads)"},
	{flag: "read-workers", key: "read_workers", field: func(c *Config) any { return &c.ReadWorkers },
		help: "dedicated closed-loop read-only sessions per client process (requires -execute)"},
	{flag: "lease-term", key: "lease_term_ms", unit: time.Millisecond, field: func(c *Config) any { return &c.LeaseTerm },
		help: "follower read-lease term"},
	{flag: "zipf", key: "zipf", field: func(c *Config) any { return &c.Zipf },
		help: "Zipfian workload skew parameter s (> 1; 0 = uniform)"},
	{flag: "durable", key: "durable", field: func(c *Config) any { return &c.Durable },
		help: "run every group's engine on the durable WAL+snapshot backend and verify end-of-run crash recovery (requires -execute)"},
	{flag: "durable-dir", key: "durable_dir", field: func(c *Config) any { return &c.DurableDir },
		help: "durable persistence root (each run uses a fresh subdirectory; default: a temp dir removed at exit)"},
	{flag: "durable-snapshot-every", key: "durable_snapshot_every", field: func(c *Config) any { return &c.DurableSnapshotEvery },
		help: "snapshot + WAL-rotation cadence in input envelopes (0 = backend default, 256)"},
	{flag: "durable-fsync-every", key: "durable_fsync_every", field: func(c *Config) any { return &c.DurableFsyncEvery },
		help: "WAL fsync cadence in appends (0 = backend default, 64)"},
	{flag: "adaptive", key: "adaptive", field: func(c *Config) any { return &c.Adaptive },
		help: "latency-targeted adaptive batching: -batch/-flush-interval become the ceiling, each node steers on queue depth"},
	{flag: "slo-ms", key: "slo_ms", field: func(c *Config) any { return &c.SLOMs },
		help: "tail-latency SLO target in ms (> 0 adds the results.slo section: goodput at target, shed rate, controller trajectory)"},
	{flag: "sessions", key: "sessions", field: func(c *Config) any { return &c.Sessions },
		help: "virtual sessions multiplexed per client process in open loop (0 = process-level admission; requires -rate)"},
	{flag: "session-outstanding", key: "session_outstanding", field: func(c *Config) any { return &c.SessionOutstanding },
		help: "per-session in-flight cap; admission beyond it is shed"},
	{flag: "session-burst", key: "session_burst", field: func(c *Config) any { return &c.SessionBurst },
		help: "per-session token-bucket burst depth"},
	// One rule everywhere: negative = tracing off, 0 = the default
	// (Fill makes it 16). Only the flag's parser still reads a literal
	// 0 as "off", the CLI's historical spelling of it.
	{flag: "trace-sample", key: "trace_sample", field: func(c *Config) any { return &c.TraceSample },
		help: "lifecycle-trace one write in N (default 16; 0 disables stage tracing)",
		parseFlag: func(c *Config, s string) error {
			n, err := strconv.Atoi(s)
			if err != nil {
				return fmt.Errorf("parse error")
			}
			if n == 0 {
				n = -1
			}
			c.TraceSample = n
			return nil
		}},
}

// AddFlags binds one flag per knob onto fs and returns the Config the
// parsed flags fill. Every default comes from Defaults() — the same
// Fill the programmatic entry point applies — so the CLI and struct
// defaults cannot diverge. Callers layer their own command-only flags
// (output path, telemetry) on the same set.
func AddFlags(fs *flag.FlagSet) *Config {
	d := Defaults()
	c := &d
	for _, k := range knobs {
		if k.parseFlag != nil {
			parse := k.parseFlag
			fs.Func(k.flag, k.help, func(s string) error { return parse(c, s) })
			continue
		}
		switch p := k.field(c).(type) {
		case *string:
			fs.StringVar(p, k.flag, *p, k.help)
		case *int:
			fs.IntVar(p, k.flag, *p, k.help)
		case *int64:
			fs.Int64Var(p, k.flag, *p, k.help)
		case *float64:
			fs.Float64Var(p, k.flag, *p, k.help)
		case *bool:
			fs.BoolVar(p, k.flag, *p, k.help)
		case *time.Duration:
			fs.DurationVar(p, k.flag, *p, k.help)
		default:
			panic(fmt.Sprintf("loadgen: knob %s has unsupported type %T", k.flag, p))
		}
	}
	return c
}

// MarshalJSON renders every knob under its JSON key, in table order,
// durations as numbers in the knob's unit. Nothing is omitted: a run
// artefact records each parameter's effective value.
func (c Config) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range knobs {
		var v any = k.field(&c)
		if d, ok := v.(*time.Duration); ok {
			v = float64(*d) / float64(k.unit)
		}
		val, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", k.key, val)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON sets the knobs the object names and leaves the rest
// alone. An unknown key is an error, so a typo in an experiments.json
// axis fails the spec instead of silently sweeping nothing.
func (c *Config) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	for key, val := range raw {
		i := 0
		for i < len(knobs) && knobs[i].key != key {
			i++
		}
		if i == len(knobs) {
			return fmt.Errorf("loadgen: unknown parameter %q", key)
		}
		k := knobs[i]
		p := k.field(c)
		if d, ok := p.(*time.Duration); ok {
			var n float64
			if err := json.Unmarshal(val, &n); err != nil {
				return fmt.Errorf("loadgen: parameter %q: %w", key, err)
			}
			*d = time.Duration(math.Round(n * float64(k.unit)))
			continue
		}
		if err := json.Unmarshal(val, p); err != nil {
			return fmt.Errorf("loadgen: parameter %q: %w", key, err)
		}
	}
	return nil
}
