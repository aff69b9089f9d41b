package flexcast

import "flexcast/amcast"

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
