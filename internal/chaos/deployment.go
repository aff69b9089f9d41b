package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"flexcast/amcast"
	"flexcast/internal/deploy"
	"flexcast/internal/gtpcc"
	"flexcast/internal/sim"
	"flexcast/internal/store"
	"flexcast/internal/trace"
	"flexcast/internal/wan"
)

// NewDeployment resolves one of the paper's three protocols on its 12
// regions (spec.Groups is always wan.NumRegions, so an unset overlay is
// O1 or T1). With execute every group runs the partitioned gTPC-C store:
// clients multicast executable gTPC-C transactions, crash recovery
// rebuilds store state from snapshot + WAL, and every schedule adds the
// execution audits of instrumentExecution to the multicast checks.
func NewDeployment(spec deploy.Spec, execute bool) (Deployment, error) {
	spec.Groups = wan.NumRegions
	dep, err := deploy.New(spec)
	if err != nil {
		return Deployment{}, err
	}
	d := Deployment{Name: spec.Protocol.String(), execute: execute}
	if execute {
		dep = dep.WithStore(store.Config{}, true, 0, 0)
		d.Instrument = instrumentExecution
	}
	d.Groups, d.Factory, d.Route = dep.Groups, dep.NewEngine, dep.Route
	d.Minimality, d.Decode = dep.Genuine, dep.DecodeSnapshot
	return d, nil
}

// leaseTerm and leaseMargin parameterize the follower read leases of
// execute-mode schedules (sim µs). Grants ride the shipped log, so a
// lease is at most as old as the group's last apply; the term is chosen
// short relative to the injected fault delays — link latencies reach
// 20ms, retransmission backoffs 30ms, partitions average 150ms and crash
// downtimes 200ms — so schedules actually drive followers into the
// expired-lease state and prove the refusal path: a read triggered by a
// reply that faults delayed past term−margin meets a lapsed lease and
// must be refused, not served stale.
const (
	leaseTerm   = 40_000
	leaseMargin = 10_000
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
func instrumentExecution(engines map[amcast.GroupID]amcast.SnapshotEngine, now func() sim.Time) *Instrumentation {
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
			return fmt.Errorf("chaos: execute-mode engine of group %d is %T, not a store executor", g, eng)
		}
		ex.SetExecObserver(rec.OnApply)
		ex.SetReadObserver(rec.OnFastRead)
		rep, err := ex.AttachFollower(store.ReplicaConfig{
			Idx:           1,
			Clock:         clock,
			AutoGrantTerm: leaseTerm,
			Margin:        leaseMargin,
		})
		if err != nil {
			return fmt.Errorf("chaos: attach follower at group %d: %w", g, err)
		}
		rep.SetReadObserver(rec.OnFastRead)
		execs[g], reps[g] = ex, rep
		return nil
	}
	for g, eng := range engines {
		if err := attach(g, eng); err != nil {
			return &Instrumentation{PostCheck: func() error { return err }}
		}
	}
	return &Instrumentation{
		Rebind: attach,
		FastRead: func(rng *rand.Rand, g amcast.GroupID, barrier uint64, simNow sim.Time) (bool, error) {
			ex, ok := execs[g]
			if !ok {
				return false, fmt.Errorf("chaos: fast read at unknown group %d", g)
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
				return fmt.Errorf("chaos: execute-mode schedule executed nothing")
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
					return fmt.Errorf("chaos: group %d follower digest diverged (%x != %x)", g, a[:8], b[:8])
				}
				shards = append(shards, ex.Shard())
			}
			return store.CheckInvariants(shards)
		},
	}
}

// region is a node's region in the paper's environment: a group's own,
// client i's is region i mod 12.
func region(n amcast.NodeID) amcast.GroupID {
	if n.IsClient() {
		return amcast.GroupID(n.ClientIndex()%wan.NumRegions + 1)
	}
	return n.Group()
}

// wanLatency is the paper environment's link model: the WAN matrix's
// one-way delay between the two ends' regions (half the 1 ms local
// round trip inside one region).
func wanLatency(from, to amcast.NodeID) sim.Time {
	return sim.Time(wan.OneWayMicros(region(from), region(to)))
}

// workload returns client c's multicast generator: message i's
// destination set and payload. The paper's environment and executing
// deployments draw gTPC-C transactions from the client's own seeded
// generator — executable payloads on an executing deployment, sized
// placeholders otherwise; the random environment draws uniform
// destination sets of up to maxDst groups from the schedule's rng.
func (r *run) workload(c, maxDst int) func(i int) ([]amcast.GroupID, []byte) {
	if r.opt.Locality > 0 || r.d.execute {
		home := region(amcast.ClientNode(c))
		locality := r.opt.Locality
		if locality <= 0 {
			locality = 0.95
		}
		seed := ScheduleSeed(r.seed, 1000+c)
		if r.opt.Duration > 0 {
			seed = r.seed + int64(c)*7919 // the paper runs' derivation, pinned by the grid's golden
		}
		gen := gtpcc.MustNew(gtpcc.Config{
			Home:       home,
			Nearest:    wan.NearestOrder(home),
			Locality:   locality,
			GlobalOnly: r.opt.GlobalOnly,
		}, rand.New(rand.NewSource(seed)))
		execute := r.d.execute
		return func(int) ([]amcast.GroupID, []byte) {
			tx := gen.Next()
			if execute {
				return tx.Dst, gtpcc.EncodeTx(tx)
			}
			return tx.Dst, make([]byte, tx.PayloadSize)
		}
	}
	groups := r.d.Groups
	return func(i int) ([]amcast.GroupID, []byte) {
		n := 1 + r.rng.Intn(maxDst)
		dst := make([]amcast.GroupID, 0, n)
		for _, p := range r.rng.Perm(len(groups))[:n] {
			dst = append(dst, groups[p])
		}
		return amcast.NormalizeDst(dst), []byte(fmt.Sprintf("chaos-%d-%d", c, i))
	}
}
