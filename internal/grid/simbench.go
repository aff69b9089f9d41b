package grid

import (
	"fmt"
	"time"

	"flexcast/amcast"
	"flexcast/internal/deploy"
	"flexcast/internal/gtpcc"
	"flexcast/internal/sim"
	"flexcast/internal/smr"
	"flexcast/internal/store"
)

// runSimbench measures smr.Group.FollowerRead itself — the follower
// read path's fixed costs, isolated from transport and workload: the
// lease-gate overhead (validity check around a no-op), a full serve
// (gate + TryRead at a satisfied barrier), the refusal path (before
// any grant is decided), and the bare executor TryRead as the no-gate
// baseline. The deployment is the sim-backed smr group set from the
// lease tests; sim time is frozen while the wall-clock loops run, so
// leases stay valid for exactly as long as the measurement needs.
//
// Metrics (medians over repeats like every cell):
//
//	followerread_gate_ns_op     lease gate around a no-op read
//	followerread_serve_ns_op    gate + store TryRead at the barrier
//	followerread_refused_ns_op  ErrLeaseExpired path (no grant yet)
//	leader_read_ns_op           bare executor TryRead (no gate)
//	followerread_gate_overhead_ns  serve − leader-read delta
func runSimbench(cell string, p *cellParams) (map[string]float64, error) {
	groups := p.load.Groups
	if groups == 0 {
		groups = 3
	}
	replicas := p.load.Replicas
	if replicas == 0 {
		replicas = 3
	}
	if replicas < 2 {
		return nil, fmt.Errorf("grid: cell %s: simbench needs replicas >= 2", cell)
	}
	leaseTerm := sim.Time(900_000) // sim µs, the lease-test term
	if p.load.LeaseTerm > 0 {
		leaseTerm = sim.Time(p.load.LeaseTerm.Microseconds())
	}
	ops := p.SimOps
	if ops == 0 {
		ops = 20_000
	}

	dep, err := deploy.New(deploy.Spec{Protocol: deploy.FlexCast, Groups: groups})
	if err != nil {
		return nil, err
	}
	dep = dep.WithStore(store.Config{}, false, 0, 0)
	ids := dep.Groups
	s := sim.New()
	net := sim.NewNetwork(s, func(from, to amcast.NodeID) sim.Time { return 2000 })
	grps := make(map[amcast.GroupID]*smr.Group, groups)
	for _, g := range ids {
		g := g
		grp, err := smr.New(smr.Config{
			Group:     g,
			Replicas:  replicas,
			LeaseTerm: leaseTerm,
			NewEngine: func() (amcast.Engine, error) { return dep.NewEngine(g) },
		}, s, net)
		if err != nil {
			return nil, err
		}
		grps[g] = grp
		grp.Start()
	}
	net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(amcast.Envelope) {}))

	target := grps[ids[0]]
	read := gtpcc.Tx{Type: gtpcc.OrderStatus, Home: ids[0], Customer: 1}
	noop := func(amcast.Engine) error { return nil }
	serve := func(eng amcast.Engine) error {
		_, rerr := eng.(*store.Executor).TryRead(read, 0)
		return rerr
	}

	// Refusal path first: no grant has been decided yet, so every
	// FollowerRead takes the ErrLeaseExpired exit.
	refusedNs, err := measureOps(ops/4, func() error {
		if err := target.FollowerRead(1, noop); err == nil {
			return fmt.Errorf("grid: cell %s: ungranted follower served", cell)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Run the sim past a few grant periods; every measured replica must
	// hold a lease before the serving loops run against frozen time.
	s.RunUntil(2 * (leaseTerm + 200_000))
	for idx := 1; idx < replicas; idx++ {
		if !target.HoldsLease(idx) {
			return nil, fmt.Errorf("grid: cell %s: replica %d holds no lease after grant periods", cell, idx)
		}
	}

	gateNs, err := measureOps(ops, func() error { return target.FollowerRead(1, noop) })
	if err != nil {
		return nil, fmt.Errorf("grid: cell %s: gate loop: %w", cell, err)
	}
	serveNs, err := measureOps(ops, func() error { return target.FollowerRead(1, serve) })
	if err != nil {
		return nil, fmt.Errorf("grid: cell %s: serve loop: %w", cell, err)
	}

	// The no-gate baseline: the same TryRead against a standalone
	// executor (identical store population, no smr wrapping).
	if _, err := dep.NewEngine(ids[0]); err != nil {
		return nil, err
	}
	ex := dep.Executors[ids[0]]
	leaderNs, err := measureOps(ops, func() error {
		_, rerr := ex.TryRead(read, 0)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("grid: cell %s: baseline loop: %w", cell, err)
	}

	for _, grp := range grps {
		grp.Stop()
	}
	s.Run()

	return map[string]float64{
		"followerread_gate_ns_op":       gateNs,
		"followerread_serve_ns_op":      serveNs,
		"followerread_refused_ns_op":    refusedNs,
		"leader_read_ns_op":             leaderNs,
		"followerread_gate_overhead_ns": serveNs - leaderNs,
	}, nil
}

// measureOps times n repetitions of op and returns wall-clock ns/op.
func measureOps(n int, op func() error) (float64, error) {
	if n < 1 {
		n = 1
	}
	// Warm caches and branch predictors outside the timed window.
	for i := 0; i < n/10+1; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}
