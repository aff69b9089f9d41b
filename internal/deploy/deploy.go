// Package deploy owns the two decisions every deployment in this
// repository makes, and nothing else.
//
// The protocol table: "which protocol" is one datum that fixes the
// engine constructor, the client entry route, the snapshot decoder and
// whether the genuineness (Minimality) audit applies. New resolves a
// Spec to one Deployment carrying all four.
//
// The wrapper stack: WithStore and WithDurable each wrap the engine
// factory and account for the wrapper in DecodeSnapshot in the same
// call, so a stack's decoder can never be composed in a different order
// than its engines, and hand back the per-group handles the layers
// above need.
//
// Every deployment site — the root package's clusters, loadgen, the
// simulator harness and its chaos adapter, the grid, the TCP binaries —
// assembles through this package (deploy_test.go guards that).
package deploy

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/durable"
	"flexcast/internal/hierarchical"
	"flexcast/internal/overlay"
	"flexcast/internal/runtime"
	"flexcast/internal/skeen"
	"flexcast/internal/store"
	"flexcast/internal/wan"
)

// Protocol selects one of the three evaluated protocols (Table 1 of the
// paper). The zero value is invalid; callers with a default apply it.
type Protocol int

const (
	// FlexCast is the paper's contribution: genuine, C-DAG overlay.
	FlexCast Protocol = iota + 1
	// Skeen is the distributed baseline: genuine, fully connected.
	Skeen
	// Hierarchical is the ByzCast-style tree baseline: non-genuine.
	Hierarchical
)

var protocolNames = [...]struct{ name, label string }{
	FlexCast:     {"flexcast", "FlexCast"},
	Skeen:        {"skeen", "Distributed"},
	Hierarchical: {"hierarchical", "Hierarchical"},
}

func (p Protocol) valid() bool { return p >= FlexCast && p <= Hierarchical }

// String names the protocol as in the paper's figures: FlexCast,
// Distributed, Hierarchical.
func (p Protocol) String() string {
	if !p.valid() {
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
	return protocolNames[p].label
}

// Name returns the protocol's canonical flag and report name:
// flexcast, skeen, hierarchical.
func (p Protocol) Name() string {
	if !p.valid() {
		return p.String()
	}
	return protocolNames[p].name
}

// ParseProtocol resolves a protocol name as every binary spells it.
func ParseProtocol(name string) (Protocol, error) {
	switch strings.ToLower(name) {
	case "flexcast":
		return FlexCast, nil
	case "skeen", "distributed":
		return Skeen, nil
	case "hierarchical", "tree":
		return Hierarchical, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q (flexcast, skeen|distributed, hierarchical|tree)", name)
	}
}

// Spec declares a deployment's protocol and group topology.
type Spec struct {
	Protocol Protocol
	// Overlay is FlexCast's C-DAG; Skeen's protocol takes its group set.
	Overlay *overlay.CDAG
	// Tree is the hierarchical protocol's overlay.
	Tree *overlay.Tree
	// Groups, when the protocol's overlay is unset, derives the default
	// one over groups 1..Groups: a chain C-DAG in id order, a star tree
	// rooted at group 1 — and at the paper's 12 groups, wan.O1() and
	// wan.T1().
	Groups int
}

// Deployment is one resolved row of the protocol table, under whatever
// wrappers have been stacked on it.
type Deployment struct {
	Protocol Protocol
	// Groups is the group set, sorted by id.
	Groups []amcast.GroupID
	// NewEngine builds one group's engine, wrappers included.
	NewEngine func(g amcast.GroupID) (amcast.SnapshotEngine, error)
	// Route maps a message to the node(s) its client sends it to: the
	// C-DAG lca, every destination, or the tree lca.
	Route func(m amcast.Message) []amcast.NodeID
	// DecodeSnapshot decodes the binary form of what NewEngine's engines
	// snapshot to.
	DecodeSnapshot func(data []byte) (amcast.Snapshot, error)
	// Genuine reports whether the Minimality audit applies.
	Genuine bool

	// Executors and Followers are the store layer's handles (WithStore),
	// Durables the durable layer's (WithDurable): each is filled per
	// group as NewEngine runs, and a group built again replaces its
	// entry. Followers has entries only when followers were requested.
	Executors map[amcast.GroupID]*store.Executor
	Followers map[amcast.GroupID][]*store.Replica
	Durables  map[amcast.GroupID]*durable.Engine
}

// New resolves a spec against the protocol table.
func New(spec Spec) (*Deployment, error) {
	d := &Deployment{Protocol: spec.Protocol, Genuine: spec.Protocol != Hierarchical}
	switch spec.Protocol {
	case FlexCast:
		ov := spec.Overlay
		if ov == nil {
			groups, err := defaultGroups(spec)
			if err != nil {
				return nil, err
			}
			if isPaperScale(groups) {
				ov = wan.O1()
			} else if ov, err = overlay.NewCDAG(groups); err != nil {
				return nil, err
			}
		}
		d.Groups = ov.Groups()
		d.NewEngine = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return core.New(core.Config{Group: g, Overlay: ov})
		}
		d.Route = func(m amcast.Message) []amcast.NodeID {
			return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
		}
		d.DecodeSnapshot = core.UnmarshalSnapshot
	case Skeen:
		if spec.Overlay != nil {
			d.Groups = spec.Overlay.Groups()
		} else {
			groups, err := defaultGroups(spec)
			if err != nil {
				return nil, err
			}
			d.Groups = groups
		}
		groups := d.Groups
		d.NewEngine = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return skeen.New(skeen.Config{Group: g, Groups: groups})
		}
		d.Route = func(m amcast.Message) []amcast.NodeID {
			nodes := make([]amcast.NodeID, len(m.Dst))
			for i, g := range m.Dst {
				nodes[i] = amcast.GroupNode(g)
			}
			return nodes
		}
		d.DecodeSnapshot = skeen.UnmarshalSnapshot
	case Hierarchical:
		tree := spec.Tree
		if tree == nil {
			groups, err := defaultGroups(spec)
			if err != nil {
				return nil, err
			}
			star := map[amcast.GroupID][]amcast.GroupID{groups[0]: groups[1:]}
			if isPaperScale(groups) {
				tree = wan.T1()
			} else if tree, err = overlay.NewTree(groups[0], star); err != nil {
				return nil, err
			}
		}
		d.Groups = tree.Groups()
		d.NewEngine = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return hierarchical.New(hierarchical.Config{Group: g, Tree: tree})
		}
		d.Route = func(m amcast.Message) []amcast.NodeID {
			return []amcast.NodeID{amcast.GroupNode(tree.Lca(m.Dst))}
		}
		d.DecodeSnapshot = hierarchical.UnmarshalSnapshot
	default:
		return nil, fmt.Errorf("deploy: unknown protocol %d", int(spec.Protocol))
	}
	return d, nil
}

// defaultGroups is the group set 1..spec.Groups of a spec that names no
// overlay for its protocol.
func defaultGroups(spec Spec) ([]amcast.GroupID, error) {
	if spec.Groups < 1 {
		return nil, fmt.Errorf("deploy: %s deployment requires its overlay or a group count", spec.Protocol)
	}
	groups := make([]amcast.GroupID, spec.Groups)
	for i := range groups {
		groups[i] = amcast.GroupID(i + 1)
	}
	return groups, nil
}

// isPaperScale reports whether a sorted group set is exactly the
// paper's 12 WAN regions, where the wan package's overlays and distance
// matrix apply.
func isPaperScale(groups []amcast.GroupID) bool {
	return len(groups) == wan.NumRegions && groups[0] == 1 && groups[len(groups)-1] == wan.NumRegions
}

// Nearest orders the other groups by closeness to home for the gTPC-C
// locality rule: by WAN distance on the paper's 12 regions, by id
// otherwise.
func (d *Deployment) Nearest(home amcast.GroupID) []amcast.GroupID {
	if isPaperScale(d.Groups) && home >= 1 && int(home) <= wan.NumRegions {
		return wan.NearestOrder(home)
	}
	var out []amcast.GroupID
	for _, g := range d.Groups {
		if g != home {
			out = append(out, g)
		}
	}
	return out
}

// WithStore stacks the gTPC-C store executor on every group's engine:
// each group owns the warehouse shard cfg describes (cfg.Warehouse is
// set per group; mirror adds the determinism-audit replica), plus that
// many asynchronous follower read replicas holding leaseTerm read
// leases that renew as the delivery log ships.
func (d *Deployment) WithStore(cfg store.Config, mirror bool, followers int, leaseTerm time.Duration) *Deployment {
	n := *d
	n.Executors = make(map[amcast.GroupID]*store.Executor)
	n.Followers = make(map[amcast.GroupID][]*store.Replica)
	n.NewEngine = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
		eng, err := d.NewEngine(g)
		if err != nil {
			return nil, err
		}
		shard := cfg
		shard.Warehouse = g
		ex, err := store.NewExecutor(eng, shard, mirror)
		if err != nil {
			return nil, err
		}
		var reps []*store.Replica
		for i := 1; i <= followers; i++ {
			rep, err := ex.AttachFollower(store.ReplicaConfig{
				Idx:           int32(i),
				Async:         true, // Clock defaults to the wall clock
				AutoGrantTerm: uint64(leaseTerm.Microseconds()),
			})
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
		}
		n.Executors[g] = ex
		if followers > 0 {
			n.Followers[g] = reps
		}
		return ex, nil
	}
	// Executor snapshots embed the snapshot of the engine underneath.
	n.DecodeSnapshot = func(data []byte) (amcast.Snapshot, error) {
		return store.UnmarshalSnapshot(data, d.DecodeSnapshot)
	}
	return &n
}

// WithDurable stacks the durable backend on every group's engine —
// everything stacked so far, so the WAL records the exact inputs of the
// state its snapshots capture. Group g persists into dir/group-<g>;
// opts supplies the cadences (its Dir and Decode are set here). The
// backend snapshots what it wraps, so DecodeSnapshot is unchanged: this
// is the call that consumes it.
func (d *Deployment) WithDurable(dir string, opts durable.Options) *Deployment {
	n := *d
	n.Durables = make(map[amcast.GroupID]*durable.Engine)
	n.NewEngine = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
		eng, err := d.NewEngine(g)
		if err != nil {
			return nil, err
		}
		o := opts
		o.Dir = GroupDir(dir, g)
		o.Decode = d.DecodeSnapshot
		de, err := durable.Wrap(eng, o)
		if err != nil {
			return nil, err
		}
		n.Durables[g] = de
		return de, nil
	}
	return &n
}

// Host builds every group's engine and runs it under a runtime node
// attached to net (runtime.Host), configured by cfg(g). An error closes
// the nodes already started; net stays the caller's.
func (d *Deployment) Host(net runtime.Net, cfg func(g amcast.GroupID) runtime.Config) ([]*runtime.Node, error) {
	nodes := make([]*runtime.Node, 0, len(d.Groups))
	for _, g := range d.Groups {
		eng, err := d.NewEngine(g)
		var node *runtime.Node
		if err == nil {
			node, err = runtime.Host(net, eng, cfg(g))
		}
		if err != nil {
			for _, n := range nodes {
				n.Close()
			}
			return nil, err
		}
		nodes = append(nodes, node)
	}
	return nodes, nil
}

// GroupDir is where WithDurable persists group g under the root dir.
func GroupDir(dir string, g amcast.GroupID) string {
	return filepath.Join(dir, fmt.Sprintf("group-%d", g))
}

// CloseFollowers stops the follower read replicas. Call it after the
// serving nodes — the replicas' log feeders — have closed.
func (d *Deployment) CloseFollowers() {
	for _, reps := range d.Followers {
		for _, rep := range reps {
			rep.Close()
		}
	}
}
