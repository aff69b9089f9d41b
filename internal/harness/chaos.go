package harness

import (
	"errors"
	"fmt"
	"math/rand"

	"flexcast/amcast"
	"flexcast/internal/chaos"
	"flexcast/internal/gtpcc"
	"flexcast/internal/overlay"
	"flexcast/internal/sim"
	"flexcast/internal/store"
	"flexcast/internal/trace"
	"flexcast/internal/wan"
)

// ChaosConfig configures the chaos deployment mode: instead of the
// paper's measurement runs, the protocol is subjected to randomized
// fault-injection schedules (internal/chaos) on the 12-group deployment
// and every schedule is validated against the safety properties.
type ChaosConfig struct {
	// Protocol selects the multicast protocol.
	Protocol Protocol
	// Overlay is FlexCast's C-DAG (default wan.O1()).
	Overlay *overlay.CDAG
	// Tree is the hierarchical protocol's overlay (default wan.T1()).
	Tree *overlay.Tree
	// Options parameterize the exploration (seeds, schedules, fault
	// intensities); see chaos.Options.
	Options chaos.Options
	// Execute runs the partitioned gTPC-C store at every group: the
	// workload switches to executable transaction payloads (gTPC-C
	// destination locality included), every schedule executes them
	// through store.Executor — with crash recovery rebuilding store
	// state from snapshot + WAL — and the post-run audits add the
	// cross-group serializability checker, the cross-shard invariants
	// and mirror-replica digest equality.
	Execute bool
}

// chaosDeployment adapts a protocol to the chaos explorer.
func chaosDeployment(cfg ChaosConfig) (chaos.Deployment, error) {
	dep, err := assemble(cfg.Protocol, cfg.Overlay, cfg.Tree)
	if err != nil {
		return chaos.Deployment{}, err
	}
	d := chaos.Deployment{Name: cfg.Protocol.String()}
	if cfg.Execute {
		dep = dep.WithStore(store.Config{}, true, 0, 0)
		d.Instrument = instrumentExecution
	}
	d.Groups = dep.Groups
	d.Factory = dep.NewEngine
	d.Route = dep.Route
	d.Minimality = dep.Genuine
	d.Decode = dep.DecodeSnapshot
	return d, nil
}

// chaosLeaseTerm and chaosLeaseMargin parameterize the follower read
// leases of execute-mode chaos schedules (sim µs). Grants ride the
// shipped log, so a lease is at most as old as the group's last apply;
// the term is chosen short relative to the injected fault delays —
// link latencies reach 20ms, retransmission backoffs 30ms, partitions
// average 150ms and crash downtimes 200ms — so schedules actually
// drive followers into the expired-lease state and prove the refusal
// path: a read triggered by a reply that faults delayed past
// term−margin meets a lapsed lease and must be refused, not served
// stale.
const (
	chaosLeaseTerm   = 40_000
	chaosLeaseMargin = 10_000
)

// instrumentExecution attaches a per-schedule execution recorder to
// every store executor, plus one lease-holding follower read replica
// per group (lockstep-fed from the executor's applied-delivery log;
// grants ride the feed, so a group that stops shipping its log — crash,
// partition — lets its follower's lease lapse within one term). The
// returned instrumentation routes each fast read either to the serving
// node (TryRead at the client's barrier — in the simulator a reply
// always implies the prefix is applied, so a failed barrier is a
// violation, not a wait) or to the group's follower through the lease
// gate, and runs the post-schedule audit.
func instrumentExecution(engines map[amcast.GroupID]amcast.SnapshotEngine, now func() sim.Time) *chaos.Instrumentation {
	rec := trace.NewExecRecorder()
	execs := make(map[amcast.GroupID]*store.Executor, len(engines))
	reps := make(map[amcast.GroupID]*store.Replica, len(engines))
	clock := func() uint64 { return uint64(now()) }
	// attach instruments one group's executor — the one the schedule
	// starts with and, in durable mode, every one a recovery rebuilds:
	// observers on, a fresh lock-step follower cloned from the (recovered)
	// shard, and the audit's handles swapped to the live pair.
	attach := func(g amcast.GroupID, eng amcast.SnapshotEngine) error {
		ex, ok := eng.(*store.Executor)
		if !ok {
			return fmt.Errorf("harness: execute-mode engine of group %d is %T, not a store executor", g, eng)
		}
		ex.SetExecObserver(rec.OnApply)
		ex.SetReadObserver(rec.OnFastRead)
		rep, err := ex.AttachFollower(store.ReplicaConfig{
			Idx:           1,
			Clock:         clock,
			AutoGrantTerm: chaosLeaseTerm,
			Margin:        chaosLeaseMargin,
		})
		if err != nil {
			return fmt.Errorf("harness: attach follower at group %d: %w", g, err)
		}
		rep.SetReadObserver(rec.OnFastRead)
		execs[g], reps[g] = ex, rep
		return nil
	}
	for g, eng := range engines {
		if err := attach(g, eng); err != nil {
			return &chaos.Instrumentation{PostCheck: func() error { return err }}
		}
	}
	return &chaos.Instrumentation{
		Rebind: attach,
		FastRead: func(rng *rand.Rand, g amcast.GroupID, barrier uint64, simNow sim.Time) (bool, error) {
			ex, ok := execs[g]
			if !ok {
				return false, fmt.Errorf("harness: fast read at unknown group %d", g)
			}
			var tx gtpcc.Tx
			if rng.Intn(2) == 0 {
				tx = gtpcc.Tx{Type: gtpcc.OrderStatus, Home: g, Customer: int32(rng.Intn(gtpcc.NumCustomers))}
			} else {
				tx = gtpcc.Tx{Type: gtpcc.StockLevel, Home: g, Threshold: int32(10 + rng.Intn(11))}
			}
			// Half the reads route to the follower replica through the
			// lease gate; an expired lease is a refusal (counted by the
			// explorer), any other failure a violation. The follower is
			// lockstep-fed, so its watermark equals the serving node's at
			// every reply — an unmet barrier is as much a violation there
			// as at the serving node.
			if rng.Intn(2) == 0 {
				_, err := reps[g].TryReadAt(tx, barrier, uint64(simNow))
				if errors.Is(err, store.ErrLeaseExpired) {
					return false, nil
				}
				return err == nil, err
			}
			_, err := ex.TryRead(tx, barrier)
			return err == nil, err
		},
		PostCheck: func() error {
			if rec.Records() == 0 {
				return fmt.Errorf("harness: execute-mode schedule executed nothing")
			}
			if err := rec.CheckAll(); err != nil {
				return err
			}
			shards := make([]*store.Shard, 0, len(execs))
			for _, g := range wan.Groups() {
				ex, ok := execs[g]
				if !ok {
					continue
				}
				if err := ex.CheckMirror(); err != nil {
					return err
				}
				// The lockstep follower applied the identical delivery
				// log: its state must be byte-identical to the serving
				// node's — the replicated-read analogue of the mirror
				// audit.
				if a, b := ex.Digest(), reps[g].Shard().Digest(); a != b {
					return fmt.Errorf("harness: group %d follower digest diverged (%x != %x)", g, a[:8], b[:8])
				}
				shards = append(shards, ex.Shard())
			}
			return store.CheckInvariants(shards)
		},
	}
}

// ApplyWANProfile installs the chaos profile that mirrors the paper's
// measurement harness instead of chaos's uniform random environment:
// link latencies come from the WAN matrix (wan.OneWayMicros; clients
// are co-located with their home region) and the workload becomes
// gTPC-C — destination sets drawn with geographic locality, payloads
// executable when execute is set. This is the ROADMAP's "next angle"
// for the flush-GC ordering bug: the dense schedules the harness
// produces depend on exactly this latency/destination structure.
func ApplyWANProfile(o *chaos.Options, locality float64, execute bool) {
	groups := wan.Groups()
	clientHome := func(n amcast.NodeID) amcast.GroupID {
		return groups[n.ClientIndex()%len(groups)]
	}
	o.Latency = func(from, to amcast.NodeID) sim.Time {
		a, b := from, to
		ha := amcast.GroupID(0)
		if a.IsClient() {
			ha = clientHome(a)
		} else {
			ha = a.Group()
		}
		hb := amcast.GroupID(0)
		if b.IsClient() {
			hb = clientHome(b)
		} else {
			hb = b.Group()
		}
		if ha == hb {
			return sim.Time(wan.LocalRTTMicros / 2)
		}
		return sim.Time(wan.OneWayMicros(ha, hb))
	}
	o.NextTx = gtpccNextTx(locality, execute)
}

// gtpccNextTx builds the chaos workload hook that draws gTPC-C
// transactions (destination locality over the WAN's nearest-warehouse
// order) instead of uniform random destination sets.
func gtpccNextTx(locality float64, execute bool) func(scheduleSeed int64, client int) func(i int) ([]amcast.GroupID, []byte) {
	groups := wan.Groups()
	return func(scheduleSeed int64, client int) func(i int) ([]amcast.GroupID, []byte) {
		home := groups[client%len(groups)]
		gen := gtpcc.MustNew(gtpcc.Config{
			Home:     home,
			Nearest:  wan.NearestOrder(home),
			Locality: locality,
		}, rand.New(rand.NewSource(chaos.ScheduleSeed(scheduleSeed, 1000+client))))
		return func(i int) ([]amcast.GroupID, []byte) {
			tx := gen.Next()
			if execute {
				return tx.Dst, gtpcc.EncodeTx(tx)
			}
			return tx.Dst, make([]byte, tx.PayloadSize)
		}
	}
}

// fillExecuteWorkload gives execute-mode runs an executable gTPC-C
// workload unless the caller installed one (reproduction must use the
// same hook as exploration).
func (c *ChaosConfig) fillExecuteWorkload() {
	if c.Execute && c.Options.NextTx == nil {
		c.Options.NextTx = gtpccNextTx(0.95, true)
	}
}

// RunChaos explores the protocol under randomized fault schedules and
// returns the aggregated safety report.
func RunChaos(cfg ChaosConfig) (*chaos.Report, error) {
	cfg.fillExecuteWorkload()
	d, err := chaosDeployment(cfg)
	if err != nil {
		return nil, err
	}
	return chaos.Explore(d, cfg.Options)
}

// ReplayChaos reruns exactly one seeded schedule — the reproduction path
// for a seed printed in a failure report.
func ReplayChaos(cfg ChaosConfig, seed int64) (*chaos.ScheduleResult, error) {
	cfg.fillExecuteWorkload()
	d, err := chaosDeployment(cfg)
	if err != nil {
		return nil, err
	}
	return chaos.RunSchedule(d, cfg.Options, seed)
}
