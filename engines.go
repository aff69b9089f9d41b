package flexcast

import (
	"flexcast/amcast"
	"flexcast/internal/deploy"
)

// newEngine builds group g's engine of the deployment a spec describes.
func newEngine(spec deploy.Spec, g GroupID) (Engine, error) {
	d, err := deploy.New(spec)
	if err != nil {
		return nil, err
	}
	return d.NewEngine(g)
}

// NewFlexCastEngine builds the FlexCast protocol state machine for one
// group on the given C-DAG overlay — the paper's contribution
// (Algorithms 1-3). The engine is deterministic and single-threaded;
// attach it to a Cluster, the simulator harness, or a TCP node.
func NewFlexCastEngine(g GroupID, ov *Overlay) (Engine, error) {
	return newEngine(deploy.Spec{Protocol: deploy.FlexCast, Overlay: ov}, g)
}

// NewSkeenEngine builds the distributed genuine baseline: Skeen's
// timestamp-based atomic multicast over a fully connected topology.
func NewSkeenEngine(g GroupID, groups []GroupID) (Engine, error) {
	ov, err := NewOverlay(groups)
	if err != nil {
		return nil, err
	}
	return newEngine(deploy.Spec{Protocol: deploy.Skeen, Overlay: ov}, g)
}

// NewHierarchicalEngine builds the non-genuine tree baseline (ByzCast's
// ordering scheme with single-process groups).
func NewHierarchicalEngine(g GroupID, tree *Tree) (Engine, error) {
	return newEngine(deploy.Spec{Protocol: deploy.Hierarchical, Tree: tree}, g)
}

// EntryNodes returns the node(s) a client must send a message to for each
// protocol: FlexCast enters at the C-DAG lca, the hierarchical protocol
// at the tree lowest common ancestor, and Skeen's protocol at every
// destination.

// FlexCastEntry returns the entry node for a FlexCast multicast.
func FlexCastEntry(ov *Overlay, m Message) NodeID {
	return GroupNode(ov.Lca(m.Dst))
}

// HierarchicalEntry returns the entry node for a tree multicast.
func HierarchicalEntry(tree *Tree, m Message) NodeID {
	return GroupNode(tree.Lca(m.Dst))
}

// SkeenEntry returns the entry nodes for a Skeen multicast (all
// destinations).
func SkeenEntry(m Message) []NodeID {
	nodes := make([]NodeID, len(m.Dst))
	for i, g := range m.Dst {
		nodes[i] = GroupNode(g)
	}
	return nodes
}

// GroupNode returns the network address of a group's server process.
func GroupNode(g GroupID) NodeID { return amcast.GroupNode(g) }

// ClientNode returns the network address of client i.
func ClientNode(i int) NodeID { return amcast.ClientNode(i) }
