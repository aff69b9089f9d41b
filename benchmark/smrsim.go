package main

import (
	"fmt"
	"math/rand"
	"time"

	"flexcast"
	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/sim"
	"flexcast/internal/smr"
)

// smr-sim drives Paxos-replicated FlexCast groups on the deterministic
// simulator: the only workload in which internal/smr and internal/paxos
// run. The simulator has no wall clock of its own, so what is timed is
// how fast this machine executes propose → decide → apply.

const (
	smrGroups   = 4
	smrReplicas = 3
	smrRTT      = 80 * time.Millisecond
	smrWave     = 200
	smrPayload  = 128
	smrLocality = 0.90
	// smrOpsPerSecond turns the requested window into fixed work: 120 000
	// timed operations for a 10 s window, which this machine needs about
	// 10 s for. The engines run without the flush client here (the public
	// cluster API has no flush multicast), so their histories grow with
	// every operation and a run's speed depends on how many it has done:
	// only runs of equal work compare.
	smrOpsPerSecond = 12000
	smrRunStep      = 20 * time.Millisecond
	smrWaveTimeout  = 30 * time.Second // simulated; a wave needs well under one
)

// smrCluster is what the driver needs of a replicated deployment;
// flexcast.ReplicatedCluster is one, tracedCluster the other.
type smrCluster interface {
	Multicast(dst []amcast.GroupID, payload []byte) (amcast.MsgID, error)
	Run(d time.Duration)
	Delivered(id amcast.MsgID) bool
	Close()
}

func smrOverlay() (*overlay.CDAG, []amcast.GroupID, error) {
	groups := make([]amcast.GroupID, smrGroups)
	for i := range groups {
		groups[i] = amcast.GroupID(i + 1)
	}
	ov, err := overlay.NewCDAG(groups)
	return ov, groups, err
}

func newPublicSMRCluster() (smrCluster, error) {
	ov, _, err := smrOverlay()
	if err != nil {
		return nil, err
	}
	return flexcast.NewReplicatedCluster(flexcast.ReplicatedClusterConfig{
		Overlay:          ov,
		ReplicasPerGroup: smrReplicas,
		InterRegionRTT:   smrRTT,
	})
}

// tracedCluster is ReplicatedCluster's assembly with the span decorator
// around every replica's engine — the seam smr.Config.NewEngine offers.
type tracedCluster struct {
	s       *sim.Simulator
	net     *sim.Network
	ov      *overlay.CDAG
	groups  []*smr.Group
	seq     uint64
	dst     map[amcast.MsgID][]amcast.GroupID
	replied map[amcast.MsgID]map[amcast.GroupID]bool
}

func newTracedCluster(rec *recorder) (*tracedCluster, error) {
	ov, groups, err := smrOverlay()
	if err != nil {
		return nil, err
	}
	c := &tracedCluster{
		s:       sim.New(),
		ov:      ov,
		dst:     make(map[amcast.MsgID][]amcast.GroupID),
		replied: make(map[amcast.MsgID]map[amcast.GroupID]bool),
	}
	oneWay := sim.Time(smrRTT.Microseconds() / 2)
	c.net = sim.NewNetwork(c.s, func(from, to amcast.NodeID) sim.Time { return oneWay })
	for _, g := range groups {
		g := g
		grp, err := smr.New(smr.Config{
			Group:    g,
			Replicas: smrReplicas,
			NewEngine: func() (amcast.Engine, error) {
				eng, err := core.New(core.Config{Group: g, Overlay: ov})
				if err != nil {
					return nil, err
				}
				return decorate(rec, layEngine, eng), nil
			},
		}, c.s, c.net)
		if err != nil {
			return nil, err
		}
		c.groups = append(c.groups, grp)
		grp.Start()
	}
	c.net.Register(amcast.ClientNode(0), sim.HandlerFunc(func(env amcast.Envelope) {
		if env.Kind != amcast.KindReply {
			return
		}
		m := c.replied[env.Msg.ID]
		if m == nil {
			m = make(map[amcast.GroupID]bool)
			c.replied[env.Msg.ID] = m
		}
		m[env.From.Group()] = true
	}))
	return c, nil
}

func (c *tracedCluster) Multicast(dst []amcast.GroupID, payload []byte) (amcast.MsgID, error) {
	c.seq++
	m := amcast.Message{
		ID:      amcast.NewMsgID(0, c.seq),
		Sender:  amcast.ClientNode(0),
		Dst:     dst,
		Payload: payload,
	}
	c.dst[m.ID] = dst
	c.net.Send(m.Sender, amcast.GroupNode(c.ov.Lca(dst)), amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
	return m.ID, nil
}

func (c *tracedCluster) Run(d time.Duration) { c.s.RunFor(sim.Time(d.Microseconds())) }

func (c *tracedCluster) Delivered(id amcast.MsgID) bool {
	got := c.replied[id]
	for _, g := range c.dst[id] {
		if !got[g] {
			return false
		}
	}
	return true
}

func (c *tracedCluster) Close() {
	for _, g := range c.groups {
		g.Stop()
	}
}

// smrStream is the seeded destination stream: 90 % of operations go to
// one group, the rest to two.
type smrStream struct {
	rng     *rand.Rand
	payload []byte
}

func newSMRStream(seed int64) *smrStream {
	s := &smrStream{rng: rand.New(rand.NewSource(seed)), payload: make([]byte, smrPayload)}
	s.rng.Read(s.payload)
	return s
}

func (s *smrStream) next() []amcast.GroupID {
	a := amcast.GroupID(1 + s.rng.Intn(smrGroups))
	if s.rng.Float64() < smrLocality {
		return []amcast.GroupID{a}
	}
	b := amcast.GroupID(1 + s.rng.Intn(smrGroups-1))
	if b >= a {
		b++
	}
	if b < a {
		a, b = b, a
	}
	return []amcast.GroupID{a, b}
}

// smrRun is one timed stretch of waves.
type smrRun struct {
	ops      uint64
	waves    int
	wall     time.Duration
	waveNs   []int64 // wall time of each wave, first multicast to last delivery
	setupEnd time.Time
}

// smrTimedOps is the fixed work that stands for a window.
func smrTimedOps(window time.Duration) int {
	ops := int(window.Seconds()*smrOpsPerSecond) / smrWave * smrWave
	if ops < smrWave {
		ops = smrWave
	}
	return ops
}

// driveSMR submits warmupOps untimed and then timedOps timed operations
// in waves, advancing the simulator after each wave until every
// operation in it is delivered. A wave the simulator cannot deliver
// within smrWaveTimeout of simulated time is an error.
func driveSMR(c smrCluster, stream *smrStream, warmupOps, timedOps int) (*smrRun, error) {
	ids := make([]amcast.MsgID, smrWave)
	wave := func() error {
		for i := range ids {
			id, err := c.Multicast(stream.next(), stream.payload)
			if err != nil {
				return err
			}
			ids[i] = id
		}
		pending := ids
		for waited := time.Duration(0); len(pending) > 0; waited += smrRunStep {
			if waited > smrWaveTimeout {
				return fmt.Errorf("smr-sim: %d of %d operations of a wave undelivered after %v simulated", len(pending), smrWave, smrWaveTimeout)
			}
			c.Run(smrRunStep)
			for len(pending) > 0 && c.Delivered(pending[0]) {
				pending = pending[1:]
			}
		}
		return nil
	}
	for done := 0; done < warmupOps; done += smrWave {
		if err := wave(); err != nil {
			return nil, err
		}
	}
	run := &smrRun{setupEnd: time.Now()}
	for int(run.ops) < timedOps {
		start := time.Now()
		if err := wave(); err != nil {
			return nil, err
		}
		run.waveNs = append(run.waveNs, int64(time.Since(start)))
		run.waves++
		run.ops += smrWave
	}
	run.wall = time.Since(run.setupEnd)
	return run, nil
}
