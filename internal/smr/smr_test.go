package smr

import (
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/sim"
	"flexcast/internal/trace"
)

// abcDeployment is a set of FlexCast groups, each replicated by the same
// number of replicas, on one simulated network.
type abcDeployment struct {
	s      *sim.Simulator
	net    *sim.Network
	groups map[amcast.GroupID]*Group
	// delivered[g][replica] is the delivery sequence of one replica.
	delivered map[amcast.GroupID][][]amcast.MsgID
	// at[g][id] is the virtual time replica recFrom[g] of g delivered id.
	at  map[amcast.GroupID]map[amcast.MsgID]sim.Time
	rec *trace.Recorder
	ov  *overlay.CDAG
	// recFrom[g] is the replica whose deliveries feed rec and at (0
	// unless a test that crashes replica 0 sets it first).
	recFrom map[amcast.GroupID]int
}

// deployABC builds a 3-group overlay where every group is replicated by
// nReplicas, with 2 ms between groups.
func deployABC(t *testing.T, nReplicas int) *abcDeployment {
	return deployGroups(t, 3, Config{Replicas: nReplicas}, 2000)
}

// deployGroups builds groups 1..nGroups, each configured as cfg with its
// Group, NewEngine and OnDeliver filled in, over inter-group links of
// one latency; intra-group replica links are configured on the group
// itself.
func deployGroups(t testing.TB, nGroups int, cfg Config, oneWay sim.Time, opts ...sim.NetworkOption) *abcDeployment {
	t.Helper()
	ids := make([]amcast.GroupID, nGroups)
	for i := range ids {
		ids[i] = amcast.GroupID(i + 1)
	}
	d := &abcDeployment{
		s:         sim.New(),
		groups:    make(map[amcast.GroupID]*Group),
		delivered: make(map[amcast.GroupID][][]amcast.MsgID),
		at:        make(map[amcast.GroupID]map[amcast.MsgID]sim.Time),
		rec:       trace.NewRecorder(),
		ov:        overlay.MustCDAG(ids),
		recFrom:   make(map[amcast.GroupID]int),
	}
	d.net = sim.NewNetwork(d.s, func(from, to amcast.NodeID) sim.Time { return oneWay }, opts...)
	for _, g := range d.ov.Order() {
		g := g
		d.delivered[g] = make([][]amcast.MsgID, cfg.Replicas)
		d.at[g] = make(map[amcast.MsgID]sim.Time)
		gcfg := cfg
		gcfg.Group = g
		gcfg.NewEngine = func() (amcast.Engine, error) {
			return core.New(core.Config{Group: g, Overlay: d.ov})
		}
		gcfg.OnDeliver = func(rep int, del amcast.Delivery) {
			d.delivered[g][rep] = append(d.delivered[g][rep], del.Msg.ID)
			if rep == d.recFrom[g] {
				d.at[g][del.Msg.ID] = d.s.Now()
				if err := d.rec.OnDeliver(del); err != nil {
					t.Error(err)
				}
			}
		}
		d.groups[g] = MustNew(gcfg, d.s, d.net)
		d.groups[g].Start()
	}
	return d
}

func (d *abcDeployment) multicast(t testing.TB, id uint64, dst ...amcast.GroupID) {
	t.Helper()
	m := amcast.Message{
		ID:     amcast.MsgID(id),
		Sender: amcast.ClientNode(0),
		Dst:    amcast.NormalizeDst(dst),
	}
	d.rec.OnMulticast(m)
	cid := amcast.ClientNode(0)
	d.net.Send(cid, amcast.GroupNode(d.ov.Lca(m.Dst)), amcast.Envelope{
		Kind: amcast.KindRequest, From: cid, Msg: m,
	})
}

func (d *abcDeployment) run(t testing.TB, horizon sim.Time) {
	t.Helper()
	d.s.RunUntil(horizon)
	for _, g := range d.groups {
		g.Stop()
	}
	d.s.Run()
}

func TestReplicatedGroupsDeliverConsistently(t *testing.T) {
	d := deployABC(t, 3)
	// The client node must exist to absorb replies.
	d.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(amcast.Envelope) {}))
	for i := uint64(1); i <= 8; i++ {
		d.multicast(t, i, 1, 2, 3)
	}
	d.multicast(t, 9, 2, 3)
	d.multicast(t, 10, 1, 3)
	d.run(t, 5_000_000)

	// Every replica of every group must have delivered the identical
	// sequence (determinism + identical decided logs).
	for g, reps := range d.delivered {
		for i := 1; i < len(reps); i++ {
			if !reflect.DeepEqual(reps[0], reps[i]) {
				t.Fatalf("group %d: replica 0 delivered %v, replica %d delivered %v",
					g, reps[0], i, reps[i])
			}
		}
		if len(reps[0]) == 0 {
			t.Fatalf("group %d delivered nothing", g)
		}
	}
	// The protocol's own guarantees must hold across replicated groups.
	if err := d.rec.CheckAll(false); err != nil {
		t.Fatal(err)
	}
}

func TestFollowerCrashTolerated(t *testing.T) {
	d := deployABC(t, 3)
	d.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(amcast.Envelope) {}))
	d.multicast(t, 1, 1, 2)
	d.s.RunUntil(1_000_000)
	// Crash one follower in every group.
	for _, g := range d.groups {
		idx := g.Leader()
		g.Crash((idx + 1) % 3)
	}
	for i := uint64(2); i <= 5; i++ {
		d.multicast(t, i, 1, 2, 3)
	}
	d.run(t, 10_000_000)
	for g := range d.groups {
		live := d.delivered[g]
		// The two live replicas agree; find them by non-empty sequences.
		if len(live[0]) == 0 {
			t.Fatalf("group %d replica 0 delivered nothing", g)
		}
	}
	if err := d.rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaderCrashFailover(t *testing.T) {
	d := deployABC(t, 3)
	d.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(amcast.Envelope) {}))
	d.multicast(t, 1, 1, 2)
	d.s.RunUntil(1_000_000)
	// Crash the current leader of group 1.
	lead := d.groups[1].Leader()
	if lead < 0 {
		lead = 0
	}
	d.groups[1].Crash(lead)
	for i := uint64(2); i <= 4; i++ {
		d.multicast(t, i, 1, 2)
	}
	d.run(t, 30_000_000)
	// The surviving replicas of group 1 must have delivered all four
	// messages.
	for idx, seq := range d.delivered[1] {
		if idx == lead {
			continue
		}
		if len(seq) != 4 {
			t.Fatalf("replica %d of group 1 delivered %v, want 4 messages", idx, seq)
		}
	}
	if newLead := d.groups[1].Leader(); newLead == lead || newLead < 0 {
		t.Fatalf("leadership did not move: %d -> %d", lead, newLead)
	}
}

func TestReplicaNodeAddressing(t *testing.T) {
	seen := make(map[amcast.NodeID]bool)
	for g := amcast.GroupID(1); g <= 12; g++ {
		gn := amcast.GroupNode(g)
		if gn.IsClient() {
			t.Fatal("group node in client range")
		}
		for i := 0; i < 5; i++ {
			n := ReplicaNode(g, i)
			if seen[n] {
				t.Fatalf("replica node collision at g=%d i=%d", g, i)
			}
			seen[n] = true
			if n.IsClient() {
				t.Fatalf("replica node %v in client range", n)
			}
			if n == gn {
				t.Fatal("replica node collides with group node")
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	s := sim.New()
	net := sim.NewNetwork(s, func(from, to amcast.NodeID) sim.Time { return 1 })
	if _, err := New(Config{Group: 1, Replicas: 0}, s, net); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := New(Config{Group: 1, Replicas: 1}, s, net); err == nil {
		t.Error("missing engine factory accepted")
	}
	ov := overlay.MustCDAG([]amcast.GroupID{1})
	if _, err := New(Config{
		Group: 1, Replicas: 1,
		NewEngine: func() (amcast.Engine, error) { return core.New(core.Config{Group: 1, Overlay: ov}) },
	}, s, net); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSingleReplicaGroupBehavesLikePlainEngine(t *testing.T) {
	d := deployABC(t, 1)
	d.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(amcast.Envelope) {}))
	for i := uint64(1); i <= 5; i++ {
		d.multicast(t, i, 1, 2, 3)
	}
	d.run(t, 5_000_000)
	want := []amcast.MsgID{1, 2, 3, 4, 5}
	for g, reps := range d.delivered {
		if !reflect.DeepEqual(reps[0], want) {
			t.Fatalf("group %d delivered %v, want %v", g, reps[0], want)
		}
	}
	if err := d.rec.CheckAll(false); err != nil {
		t.Fatal(err)
	}
}

func TestAppliedCountsMatch(t *testing.T) {
	d := deployABC(t, 3)
	d.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(amcast.Envelope) {}))
	for i := uint64(1); i <= 6; i++ {
		d.multicast(t, i, 1, 2, 3)
	}
	d.run(t, 5_000_000)
	for g, grp := range d.groups {
		a0 := grp.Applied(0)
		if a0 == 0 {
			t.Fatalf("group %d applied nothing", g)
		}
		for i := 1; i < 3; i++ {
			if grp.Applied(i) != a0 {
				t.Fatalf("group %d: applied counts diverge: %d vs %d", g, a0, grp.Applied(i))
			}
		}
	}
}

// TestCrashedReplicaRestartsAndCatchesUp exercises the §4.4 recovery
// path: a crashed follower restarts, rebuilds its engine by replaying
// its stable decided log, state-transfers the suffix it missed from a
// live peer, and then participates normally.
func TestCrashedReplicaRestartsAndCatchesUp(t *testing.T) {
	d := deployABC(t, 3)
	d.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(amcast.Envelope) {}))
	d.multicast(t, 1, 1, 2, 3)
	d.multicast(t, 2, 1, 2)
	d.s.RunUntil(2_000_000)

	g1 := d.groups[1]
	lead := g1.Leader()
	if lead < 0 {
		lead = 0
	}
	down := (lead + 1) % 3
	g1.Crash(down)

	// Traffic the crashed replica misses entirely.
	for i := uint64(3); i <= 6; i++ {
		d.multicast(t, i, 1, 3)
	}
	d.s.RunUntil(6_000_000)

	if err := g1.Restart(down); err != nil {
		t.Fatal(err)
	}
	// The restarted replica must already have caught up to a live peer.
	if got, want := g1.Applied(down), g1.Applied(lead); got != want {
		t.Fatalf("restarted replica applied %d entries, live peer %d", got, want)
	}

	// And it keeps up with new traffic.
	preRestart := len(d.delivered[1][down])
	for i := uint64(7); i <= 9; i++ {
		d.multicast(t, i, 1, 2)
	}
	d.run(t, 12_000_000)

	for idx := 0; idx < 3; idx++ {
		if got, want := g1.Applied(idx), g1.Applied(lead); got != want {
			t.Fatalf("replica %d applied %d entries, leader %d", idx, got, want)
		}
	}
	post := d.delivered[1][down][preRestart:]
	if len(post) == 0 {
		t.Fatal("restarted replica delivered nothing after restart")
	}
	// Replayed deliveries are suppressed, so the restarted replica's
	// post-restart deliveries must be a suffix of a live replica's full
	// sequence (consistent order, no duplicates, no gaps at the end).
	full := d.delivered[1][lead]
	if len(full) < len(post) || !reflect.DeepEqual(full[len(full)-len(post):], post) {
		t.Fatalf("post-restart deliveries %v are not a suffix of live sequence %v", post, full)
	}
	if err := d.rec.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartOfLiveReplicaIsNoop covers the guard.
func TestRestartOfLiveReplicaIsNoop(t *testing.T) {
	d := deployABC(t, 3)
	d.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(amcast.Envelope) {}))
	d.multicast(t, 1, 1, 2)
	d.s.RunUntil(1_000_000)
	before := d.groups[1].Applied(1)
	if err := d.groups[1].Restart(1); err != nil {
		t.Fatal(err)
	}
	if d.groups[1].Applied(1) != before {
		t.Fatal("restart of live replica rebuilt its state")
	}
}
