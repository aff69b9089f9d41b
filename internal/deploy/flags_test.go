package deploy_test

import (
	"reflect"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/deploy"
	"flexcast/internal/transport"
	"flexcast/internal/wan"
)

// TestFlagGrammar: the README/-help examples parse to the expected
// tree, rank order and address book, and every malformed form is
// rejected with an error naming the offending token.
func TestFlagGrammar(t *testing.T) {
	tree, err := deploy.ParseTree("8:8=7|5|9,7=6,5=1|2|3|4,9=10|11|12")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range wan.Groups() {
		got, gok := tree.Parent(g)
		want, wok := wan.T1().Parent(g)
		if got != want || gok != wok {
			t.Errorf("parsed tree: parent(%d) = %d,%v, want T1's %d,%v", g, got, gok, want, wok)
		}
	}
	order, err := deploy.ParseGroups("8,7,6,5,2,1,3,4,9,10,11,12")
	if err != nil || !reflect.DeepEqual(order, wan.O1().Order()) {
		t.Errorf("ParseGroups = %v, %v; want O1's rank order", order, err)
	}
	book, err := deploy.ParsePeers("g1=host:4001,c0=client:5000")
	want := transport.AddrBook{amcast.GroupNode(1): "host:4001", amcast.ClientNode(0): "client:5000"}
	if err != nil || !reflect.DeepEqual(book, want) {
		t.Errorf("ParsePeers = %v, %v; want %v", book, err, want)
	}

	bad := []struct {
		name  string
		parse func() error
		token string // must appear in the error
	}{
		{"peers empty", func() error { _, err := deploy.ParsePeers(""); return err }, "-peers"},
		{"peers no address", func() error { _, err := deploy.ParsePeers("g1=a:1,g"); return err }, `"g"`},
		{"peers bad kind", func() error { _, err := deploy.ParsePeers("x3=a:1"); return err }, `"x3"`},
		{"peers bad index", func() error { _, err := deploy.ParsePeers("gx=a:1"); return err }, `"gx"`},
		{"peers duplicate", func() error { _, err := deploy.ParsePeers("g1=a:1,c0=b:2,g1=c:3"); return err }, `"g1"`},
		{"node id short", func() error { _, err := deploy.ParseNodeID("g"); return err }, `"g"`},
		{"groups empty", func() error { _, err := deploy.ParseGroups(""); return err }, "-overlay"},
		{"groups non-numeric", func() error { _, err := deploy.ParseGroups("1,two,3"); return err }, `"two"`},
		{"tree empty", func() error { _, err := deploy.ParseTree(""); return err }, "-tree"},
		{"tree without root", func() error { _, err := deploy.ParseTree("1=2"); return err }, `"1=2"`},
		{"tree bad root", func() error { _, err := deploy.ParseTree("r:1=2"); return err }, `"r"`},
		{"tree edge without children", func() error { _, err := deploy.ParseTree("1:1"); return err }, `"1"`},
		{"tree bad parent", func() error { _, err := deploy.ParseTree("1:p=2"); return err }, `"p"`},
		{"tree non-numeric child", func() error { _, err := deploy.ParseTree("1:1=2|x"); return err }, `"x"`},
		{"protocol", func() error { _, err := deploy.ParseProtocol("paxos"); return err }, `"paxos"`},
		{"flags protocol", func() error { _, err := deploy.FromFlags("paxos", "1,2", ""); return err }, `"paxos"`},
		{"flags needs overlay", func() error { _, err := deploy.FromFlags("skeen", "", "1:1=2"); return err }, "-overlay"},
		{"flags needs tree", func() error { _, err := deploy.FromFlags("tree", "1,2", ""); return err }, "-tree"},
	}
	for _, c := range bad {
		err := c.parse()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.token) {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.token)
		}
	}
}

// TestProtocolNames: every binary's spelling resolves, names and labels
// round-trip, and the error lists the accepted names.
func TestProtocolNames(t *testing.T) {
	for name, want := range map[string]deploy.Protocol{
		"flexcast": deploy.FlexCast, "FlexCast": deploy.FlexCast,
		"skeen": deploy.Skeen, "distributed": deploy.Skeen, "Distributed": deploy.Skeen,
		"hierarchical": deploy.Hierarchical, "tree": deploy.Hierarchical, "Hierarchical": deploy.Hierarchical,
	} {
		if got, err := deploy.ParseProtocol(name); err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, p := range protocols {
		for _, s := range []string{p.Name(), p.String()} {
			if got, err := deploy.ParseProtocol(s); err != nil || got != p {
				t.Errorf("%q does not round-trip: %v, %v", s, got, err)
			}
		}
	}
	_, err := deploy.ParseProtocol("paxos")
	if want := `unknown protocol "paxos" (flexcast, skeen|distributed, hierarchical|tree)`; err == nil || err.Error() != want {
		t.Errorf("error %v, want %s", err, want)
	}
}
