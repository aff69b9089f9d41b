package flexcast

import (
	"fmt"
	"time"

	"flexcast/internal/client"
	"flexcast/internal/deploy"
	"flexcast/internal/sim"
	"flexcast/internal/smr"
)

// ReplicatedClusterConfig configures a deterministic, simulated FlexCast
// deployment in which every group is replicated with Paxos-based state
// machine replication (paper §4.4). Because replication is driven by the
// discrete-event simulator, runs are perfectly reproducible and replica
// crashes can be injected at exact points.
type ReplicatedClusterConfig struct {
	// Overlay is the C-DAG overlay (required).
	Overlay *Overlay
	// ReplicasPerGroup is the replication degree (default 3, tolerating
	// one crash per group).
	ReplicasPerGroup int
	// InterRegionRTT is the round-trip time between groups (default
	// 100ms); replicas within a group are co-located.
	InterRegionRTT time.Duration
	// OnDeliver observes every delivery of every replica.
	OnDeliver func(replica int, d Delivery)
}

// ReplicatedCluster is a simulated deployment of Paxos-replicated
// FlexCast groups. Multicast enqueues messages; Run advances virtual
// time. All methods must be called from one goroutine.
type ReplicatedCluster struct {
	cfg    ReplicatedClusterConfig
	dep    *deploy.Deployment
	s      *sim.Simulator
	net    *sim.Network
	groups map[GroupID]*smr.Group
	// calls holds the multicasts still awaiting a destination's reply;
	// ids are client 0's seqs 1..seq, so an id at or below seq that is no
	// longer open has been delivered everywhere (Delivered).
	calls *client.Calls[struct{}]
	seq   uint64
}

// NewReplicatedCluster builds the deployment.
func NewReplicatedCluster(cfg ReplicatedClusterConfig) (*ReplicatedCluster, error) {
	dep, err := deploy.New(deploy.Spec{Protocol: deploy.FlexCast, Overlay: cfg.Overlay})
	if err != nil {
		return nil, err
	}
	if cfg.ReplicasPerGroup == 0 {
		cfg.ReplicasPerGroup = 3
	}
	if cfg.InterRegionRTT == 0 {
		cfg.InterRegionRTT = 100 * time.Millisecond
	}
	c := &ReplicatedCluster{
		cfg:    cfg,
		dep:    dep,
		s:      sim.New(),
		groups: make(map[GroupID]*smr.Group),
		calls:  client.NewCalls[struct{}](0, dep.Route),
	}
	oneWay := sim.Time(cfg.InterRegionRTT.Microseconds() / 2)
	c.net = sim.NewNetwork(c.s, func(from, to NodeID) sim.Time { return oneWay })
	for _, g := range cfg.Overlay.Order() {
		g := g
		grp, err := smr.New(smr.Config{
			Group:     g,
			Replicas:  cfg.ReplicasPerGroup,
			NewEngine: func() (Engine, error) { return dep.NewEngine(g) },
			OnDeliver: func(rep int, d Delivery) {
				if cfg.OnDeliver != nil {
					cfg.OnDeliver(rep, d)
				}
			},
		}, c.s, c.net)
		if err != nil {
			return nil, err
		}
		c.groups[g] = grp
		grp.Start()
	}
	c.net.Register(c.calls.ID(), sim.HandlerFunc(func(env Envelope) { c.calls.Reply(env) }))
	return c, nil
}

// Multicast enqueues a message to the destination groups; it is
// processed as Run advances virtual time.
func (c *ReplicatedCluster) Multicast(dst []GroupID, payload []byte) (MsgID, error) {
	if len(dst) == 0 {
		return 0, fmt.Errorf("flexcast: empty destination set")
	}
	for _, g := range dst {
		if _, ok := c.groups[g]; !ok {
			return 0, fmt.Errorf("flexcast: group %d not in cluster", g)
		}
	}
	c.seq++
	m := c.calls.Message(c.seq, append([]GroupID(nil), dst...), 0, append([]byte(nil), payload...))
	c.calls.Issue(m, struct{}{})
	c.calls.Requests(m, func(to NodeID, env Envelope) { c.net.Send(m.Sender, to, env) })
	return m.ID, nil
}

// Run advances virtual time by d, processing protocol and replication
// traffic.
func (c *ReplicatedCluster) Run(d time.Duration) {
	c.s.RunFor(sim.Time(d.Microseconds()))
}

// Delivered reports whether every destination group has acknowledged
// delivery of the message.
func (c *ReplicatedCluster) Delivered(id MsgID) bool {
	issued := id.Client() == 0 && id.Seq() >= 1 && id.Seq() <= c.seq
	return issued && !c.calls.Open(id)
}

// CrashReplica kills one replica of a group. Paxos keeps the group
// available while a majority survives.
func (c *ReplicatedCluster) CrashReplica(g GroupID, idx int) error {
	grp, ok := c.groups[g]
	if !ok {
		return fmt.Errorf("flexcast: unknown group %d", g)
	}
	grp.Crash(idx)
	return nil
}

// Leader returns the index of group g's current Paxos leader, or -1 when
// no replica currently leads.
func (c *ReplicatedCluster) Leader(g GroupID) int {
	grp, ok := c.groups[g]
	if !ok {
		return -1
	}
	return grp.Leader()
}

// Now returns the current virtual time.
func (c *ReplicatedCluster) Now() time.Duration {
	return time.Duration(c.s.Now()) * time.Microsecond
}

// Close stops the replication tick loops.
func (c *ReplicatedCluster) Close() {
	for _, grp := range c.groups {
		grp.Stop()
	}
}
