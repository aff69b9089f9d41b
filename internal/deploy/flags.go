package deploy

import (
	"fmt"
	"strconv"
	"strings"

	"flexcast/amcast"
	"flexcast/internal/overlay"
	"flexcast/internal/transport"
)

// The flag grammar of the TCP binaries (flexnode, flexclient): protocol
// name, -overlay group list, -tree, -peers address book.

// FromFlags assembles the deployment the -protocol/-overlay/-tree flag
// triple names: the hierarchical protocol reads the tree, the other two
// the group list (FlexCast's rank order, Skeen's group set).
func FromFlags(protocol, groups, tree string) (*Deployment, error) {
	p, err := ParseProtocol(protocol)
	if err != nil {
		return nil, err
	}
	spec := Spec{Protocol: p}
	if p == Hierarchical {
		spec.Tree, err = ParseTree(tree)
	} else {
		var order []amcast.GroupID
		if order, err = ParseGroups(groups); err == nil {
			spec.Overlay, err = overlay.NewCDAG(order)
		}
	}
	if err != nil {
		return nil, err
	}
	return New(spec)
}

// ParsePeers parses "g1=host:port,c0=host:port,...".
func ParsePeers(s string) (transport.AddrBook, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -peers")
	}
	book := make(transport.AddrBook)
	for _, pair := range strings.Split(s, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q", pair)
		}
		id, err := ParseNodeID(kv[0])
		if err != nil {
			return nil, err
		}
		if _, dup := book[id]; dup {
			return nil, fmt.Errorf("duplicate peer %q", kv[0])
		}
		book[id] = kv[1]
	}
	return book, nil
}

// ParseNodeID parses "gN" (group N's server) or "cN" (client N).
func ParseNodeID(s string) (amcast.NodeID, error) {
	if len(s) < 2 {
		return 0, fmt.Errorf("bad node id %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil {
		return 0, fmt.Errorf("bad node id %q: %w", s, err)
	}
	switch s[0] {
	case 'g':
		return amcast.GroupNode(amcast.GroupID(n)), nil
	case 'c':
		return amcast.ClientNode(n), nil
	default:
		return 0, fmt.Errorf("bad node id %q (want gN or cN)", s)
	}
}

// ParseGroups parses a comma-separated group list, e.g.
// "8,7,6,5,2,1,3,4,9,10,11,12".
func ParseGroups(s string) ([]amcast.GroupID, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -overlay")
	}
	var out []amcast.GroupID
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad group %q: %w", part, err)
		}
		out = append(out, amcast.GroupID(n))
	}
	return out, nil
}

// ParseTree parses "root:parent=c1|c2,parent=c3", e.g.
// "8:8=7|5|9,7=6,5=1|2|3|4,9=10|11|12".
func ParseTree(s string) (*overlay.Tree, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -tree")
	}
	head := strings.SplitN(s, ":", 2)
	if len(head) != 2 {
		return nil, fmt.Errorf("bad tree %q (want root:edges)", s)
	}
	root, err := strconv.Atoi(head[0])
	if err != nil {
		return nil, fmt.Errorf("bad tree root %q: %w", head[0], err)
	}
	children := make(map[amcast.GroupID][]amcast.GroupID)
	for _, edge := range strings.Split(head[1], ",") {
		kv := strings.SplitN(edge, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad tree edge %q", edge)
		}
		p, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad tree parent %q: %w", kv[0], err)
		}
		for _, c := range strings.Split(kv[1], "|") {
			n, err := strconv.Atoi(c)
			if err != nil {
				return nil, fmt.Errorf("bad tree child %q: %w", c, err)
			}
			children[amcast.GroupID(p)] = append(children[amcast.GroupID(p)], amcast.GroupID(n))
		}
	}
	return overlay.NewTree(amcast.GroupID(root), children)
}
