package flexcast

import (
	"fmt"
	"time"

	"flexcast/amcast"
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
	seq    uint64
	// replied[id] counts distinct group replies, for WaitAll bookkeeping.
	replied map[MsgID]map[GroupID]bool
	dst     map[MsgID][]GroupID
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
		cfg:     cfg,
		dep:     dep,
		s:       sim.New(),
		groups:  make(map[GroupID]*smr.Group),
		replied: make(map[MsgID]map[GroupID]bool),
		dst:     make(map[MsgID][]GroupID),
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
	c.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(env Envelope) {
		if env.Kind != amcast.KindReply {
			return
		}
		m := c.replied[env.Msg.ID]
		if m == nil {
			m = make(map[GroupID]bool)
			c.replied[env.Msg.ID] = m
		}
		m[env.From.Group()] = true
	}))
	return c, nil
}

// Multicast enqueues a message to the destination groups; it is
// processed as Run advances virtual time.
func (c *ReplicatedCluster) Multicast(dst []GroupID, payload []byte) (MsgID, error) {
	norm := amcast.NormalizeDst(append([]GroupID(nil), dst...))
	if len(norm) == 0 {
		return 0, fmt.Errorf("flexcast: empty destination set")
	}
	for _, g := range norm {
		if _, ok := c.groups[g]; !ok {
			return 0, fmt.Errorf("flexcast: group %d not in cluster", g)
		}
	}
	c.seq++
	m := Message{
		ID:      amcast.NewMsgID(0, c.seq),
		Sender:  amcast.ClientNode(0),
		Dst:     norm,
		Payload: append([]byte(nil), payload...),
	}
	c.dst[m.ID] = norm
	for _, to := range c.dep.Route(m) {
		c.net.Send(m.Sender, to, Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
	}
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
	dst, ok := c.dst[id]
	if !ok {
		return false
	}
	got := c.replied[id]
	for _, g := range dst {
		if !got[g] {
			return false
		}
	}
	return true
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
