package flexcast

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/deploy"
	"flexcast/internal/durable"
	"flexcast/internal/runtime"
	"flexcast/internal/transport"
)

// Protocol selects which multicast protocol a cluster or an experiment
// runs.
type Protocol = deploy.Protocol

// Protocols under evaluation (Table 1 of the paper).
const (
	// FlexCast is the paper's genuine C-DAG protocol.
	FlexCast = deploy.FlexCast
	// Distributed is Skeen's genuine fully connected protocol.
	Distributed = deploy.Skeen
	// Hierarchical is the non-genuine tree protocol.
	Hierarchical = deploy.Hierarchical
)

// ClusterConfig configures an in-process cluster.
type ClusterConfig struct {
	// Protocol selects the multicast protocol (default FlexCast).
	Protocol Protocol
	// Overlay is required for FlexCast; its order defines the group set
	// for every protocol unless Tree is set.
	Overlay *Overlay
	// Tree is required for Hierarchical.
	Tree *Tree
	// OnDeliver observes every delivery at every group. Calls are
	// serialized per group but concurrent across groups; the callback
	// must be safe for concurrent use.
	OnDeliver func(d Delivery)
	// CallTimeout bounds Call (default 10s).
	CallTimeout time.Duration
	// MaxBatch caps the runtime's envelope batches (internal/runtime):
	// inbound coalescing and per-destination output batching. 0 takes
	// the runtime default (64); 1 disables batching. Batching never
	// delays an idle cluster — batches form only when queues have depth.
	MaxBatch int
	// Durable, when non-nil, selects the durable persistence backend:
	// each group's engine runs behind a write-ahead log plus
	// periodic snapshot files (internal/durable) rooted under
	// Durable.Dir, and a restarted cluster pointed at the same directory
	// recovers each group's state before serving. nil keeps the default
	// in-memory backend, byte-for-byte unchanged.
	Durable *DurableConfig
}

// DurableConfig configures the durable persistence backend
// (ClusterConfig.Durable / StoreClusterConfig.Durable).
type DurableConfig struct {
	// Dir is the persistence root; each group persists into
	// Dir/group-<id>. Required.
	Dir string
	// SnapshotEvery snapshots and rotates each group's WAL every N input
	// envelopes (default 256; <0 disables snapshots — the WAL then grows
	// unbounded and recovery replays it all).
	SnapshotEvery int
	// FsyncEvery fsyncs each WAL every N appends (default 64; 1 fsyncs
	// every append, <0 never fsyncs — kill -9 durability only).
	FsyncEvery int
	// KeepEpochs retains superseded WAL/snapshot files instead of
	// deleting them.
	KeepEpochs bool
}

// DurableRecovery reports how one group's durable engine recovered at
// cluster start (zero-valued when the directory was empty).
type DurableRecovery struct {
	// Group identifies the recovered group.
	Group GroupID
	// Recovered is true when prior state (snapshot or WAL) was found.
	Recovered bool
	// SnapshotEpoch is the restored snapshot's epoch (0: none).
	SnapshotEpoch uint64
	// ReplayedRecords counts the WAL records replayed on top.
	ReplayedRecords int
	// ReplayedEnvelopes counts the envelopes inside those records — the
	// recovery bound: with snapshots on, it is bounded by the snapshot
	// cadence, not the run length.
	ReplayedEnvelopes int
	// TornTailBytes is the length of the discarded torn WAL tail.
	TornTailBytes int64
	// Elapsed is the wall-clock recovery time (restore + replay).
	Elapsed time.Duration
}

// Cluster is an in-process deployment of one multicast protocol: one
// batched runtime node per group over the in-memory transport
// (internal/runtime), plus a built-in client for Multicast/Call. It is
// the easiest way to embed atomic multicast in an application or test.
type Cluster struct {
	cfg   ClusterConfig
	dep   *deploy.Deployment
	net   *transport.InMemNet
	nodes []*runtime.Node
	// send transmits the built-in client's requests.
	send transport.SendFunc
	// clientSeq persists the built-in client's sequence reservation on
	// durable clusters: message ids must stay unique across cluster
	// incarnations, or a reopened cluster would reissue ids its recovered
	// engines already delivered — and the engines would deduplicate the
	// new requests instead of ordering them. nil on in-memory clusters.
	clientSeq *durable.SeqFile

	mu  sync.Mutex
	seq uint64
	// calls is the built-in client (client 0): the open Calls, and in
	// calls.Prefix the delivered prefix the client has witnessed per
	// group — the consistency barrier of the local-read fast path
	// (StoreCluster): a read at that barrier sees every delivery whose
	// reply the client has already received. Guarded by mu.
	calls  *client.Calls[callWaiter]
	closed bool
}

// callWaiter is what a blocked Call keeps in its table entry.
type callWaiter struct {
	// observed folds this call's replies alone — the per-call barrier
	// delta a Session merges into its own vector (the cluster-wide
	// tracker is too coarse for sessions: it advances with every
	// caller's traffic, not just this session's observations).
	observed amcast.PrefixTracker
	// done is closed when the call completes, or — with closed set —
	// when the cluster closes under it.
	done   chan struct{}
	closed bool
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Protocol == 0 {
		cfg.Protocol = FlexCast
	}
	dep, err := deploy.New(deploy.Spec{Protocol: cfg.Protocol, Overlay: cfg.Overlay, Tree: cfg.Tree})
	if err != nil {
		return nil, err
	}
	return newCluster(cfg, dep)
}

// newCluster starts a cluster over an assembled deployment (the
// protocol, plus StoreCluster's execution layer), stacking the durable
// backend on top when configured.
func newCluster(cfg ClusterConfig, dep *deploy.Deployment) (*Cluster, error) {
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	c := &Cluster{cfg: cfg, net: transport.NewInMemNet()}
	if d := cfg.Durable; d != nil {
		if err := os.MkdirAll(d.Dir, 0o755); err != nil {
			return nil, err
		}
		sf, err := durable.OpenSeqFile(filepath.Join(d.Dir, "client.seq"), 0)
		if err != nil {
			return nil, err
		}
		c.clientSeq = sf
		dep = dep.WithDurable(d.Dir, durable.Options{
			SnapshotEvery: d.SnapshotEvery,
			FsyncEvery:    d.FsyncEvery,
			KeepEpochs:    d.KeepEpochs,
		})
	}
	c.dep = dep
	c.calls = client.NewCalls[callWaiter](0, dep.Route)
	var err error
	c.nodes, err = dep.Host(c.net, func(amcast.GroupID) runtime.Config {
		return runtime.Config{
			MaxBatch:  cfg.MaxBatch,
			OnDeliver: cfg.OnDeliver,
		}
	})
	if err == nil {
		c.send, err = c.net.Attach(c.calls.ID(), c.onClientBatch)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// DurableRecoveries reports, per group, how the durable backend
// recovered at cluster start. Empty on in-memory clusters.
func (c *Cluster) DurableRecoveries() []DurableRecovery {
	var out []DurableRecovery
	for _, g := range c.dep.Groups {
		de, ok := c.dep.Durables[g]
		if !ok {
			continue
		}
		st := de.Recovery()
		out = append(out, DurableRecovery{
			Group:             g,
			Recovered:         st.Recovered,
			SnapshotEpoch:     st.SnapshotEpoch,
			ReplayedRecords:   st.ReplayedRecords,
			ReplayedEnvelopes: st.ReplayedEnvelopes,
			TornTailBytes:     st.TornTailBytes,
			Elapsed:           st.Elapsed,
		})
	}
	return out
}

// Groups returns the cluster's group set.
func (c *Cluster) Groups() []GroupID { return append([]GroupID(nil), c.dep.Groups...) }

// ObservedPrefix returns the delivered prefix the cluster's built-in
// client has observed at group g: one past the highest delivery
// sequence seen on a reply from g, raised further by any watermark a
// reply or read result piggybacked (amcast.PrefixTracker). It only
// grows, so it is a valid read-your-writes barrier for reads against g.
func (c *Cluster) ObservedPrefix(g GroupID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls.Prefix.Prefix(g)
}

// observeRead folds a read result's serving watermark into the
// cluster-wide barrier, making successive reads monotonic even across
// different serving replicas.
func (c *Cluster) observeRead(g GroupID, watermark uint64) {
	c.mu.Lock()
	c.calls.Prefix.Fold(g, watermark)
	c.mu.Unlock()
}

// Multicast sends payload to the destination groups and returns the
// message id without waiting for delivery. Deliveries surface through
// ClusterConfig.OnDeliver.
func (c *Cluster) Multicast(dst []GroupID, payload []byte) (MsgID, error) {
	m, _, err := c.issue(dst, payload, false)
	return m.ID, err
}

// Call multicasts payload and blocks until every destination group has
// delivered (i.e. replied), or the timeout elapses.
func (c *Cluster) Call(dst []GroupID, payload []byte) (MsgID, error) {
	id, _, err := c.call(dst, payload)
	return id, err
}

// call multicasts payload and waits for the completed call, whose entry
// carries the folded verdict and the delivered prefixes this call's
// replies alone witnessed.
func (c *Cluster) call(dst []GroupID, payload []byte) (MsgID, *client.Call[callWaiter], error) {
	m, call, err := c.issue(dst, payload, true)
	if err != nil {
		return 0, nil, err
	}
	// Stopped on return: an unfired timer is not collectable under this
	// module's go 1.22 timer semantics, and CallTimeout outlives most calls.
	timeout := time.NewTimer(c.cfg.CallTimeout)
	defer timeout.Stop()
	select {
	case <-call.Data.done:
		if call.Data.closed {
			return m.ID, nil, fmt.Errorf("flexcast: cluster closed with call %s pending", m.ID)
		}
		return m.ID, call, nil
	case <-timeout.C:
		c.mu.Lock()
		c.calls.Abandon(m.ID)
		c.mu.Unlock()
		return m.ID, nil, fmt.Errorf("flexcast: call %s timed out after %v", m.ID, c.cfg.CallTimeout)
	}
}

// issue validates dst, builds the next message and sends its requests;
// with wait set the call is opened first, so its replies are collected.
func (c *Cluster) issue(dst []GroupID, payload []byte, wait bool) (Message, *client.Call[callWaiter], error) {
	dst = append([]GroupID(nil), dst...)
	if len(dst) == 0 {
		return Message{}, nil, fmt.Errorf("flexcast: empty destination set")
	}
	for _, g := range dst {
		if !slices.Contains(c.dep.Groups, g) {
			return Message{}, nil, fmt.Errorf("flexcast: group %d not in cluster", g)
		}
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Message{}, nil, fmt.Errorf("flexcast: cluster closed")
	}
	if c.clientSeq != nil {
		seq, err := c.clientSeq.Next()
		if err != nil {
			c.mu.Unlock()
			return Message{}, nil, fmt.Errorf("flexcast: reserving client sequence: %w", err)
		}
		c.seq = seq
	} else {
		c.seq++
	}
	m := c.calls.Message(c.seq, dst, 0, append([]byte(nil), payload...))
	var call *client.Call[callWaiter]
	if wait {
		call = c.calls.Issue(m, callWaiter{observed: make(amcast.PrefixTracker), done: make(chan struct{})})
	}
	c.mu.Unlock()

	c.calls.Requests(m, func(to NodeID, env Envelope) { c.send(to, []Envelope{env}) })
	return m, call, nil
}

func (c *Cluster) onClientBatch(envs []Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, env := range envs {
		call, progress := c.calls.Reply(env)
		if call == nil {
			continue
		}
		call.Data.observed.Observe(env)
		if progress == client.Completed {
			close(call.Data.done)
		}
	}
}

// Close stops all group goroutines. Pending Calls fail at once with a
// "cluster closed" error.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.calls.Sweep(func(call *client.Call[callWaiter]) bool {
		call.Data.closed = true
		close(call.Data.done)
		return true
	})
	c.mu.Unlock()
	c.net.Close()
	for _, n := range c.nodes {
		n.Close()
	}
}
