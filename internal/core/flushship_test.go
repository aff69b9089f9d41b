package core_test

import (
	"reflect"
	"slices"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
)

// tap is a FlexCast engine that records what it consumes and sends.
type tap struct {
	*core.Engine
	in   []amcast.Envelope
	outs []amcast.Output
}

func (tp *tap) BatchStep(envs []amcast.Envelope) []amcast.Output {
	tp.in = append(tp.in, envs...)
	outs := tp.Engine.BatchStep(envs)
	tp.outs = append(tp.outs, outs...)
	return outs
}

func tapRouter(t *testing.T, groups []amcast.GroupID) (*prototest.Router, map[amcast.GroupID]*tap) {
	ov := overlay.MustCDAG(groups)
	taps := make(map[amcast.GroupID]*tap)
	r := prototest.NewRouter(t, groups, func(g amcast.GroupID) amcast.Engine {
		taps[g] = &tap{Engine: core.MustNew(core.Config{Group: g, Overlay: ov})}
		return taps[g]
	})
	return r, taps
}

func flushMsg(id uint64, groups []amcast.GroupID) amcast.Message {
	m := prototest.Msg(id, groups...)
	m.Flags = amcast.FlagFlush
	return m
}

// TestFlushAckShipsOnlyItsOwnEntries: twelve groups, traffic addressed
// to groups {1,2} and {2,3}, then one flush to every group. Groups 1 and
// 2 created the nodes (each is its messages' lca) and each group its own
// delivery chain; groups 4-12 merged it all. The flush's MSG and acks
// carry each pre-flush entry from its creator alone: a node only from
// its lca, an edge only from a group that delivered both ends, and
// nothing at all from groups 4-12 — where each used to forward its whole
// flush period to every group above it. So every pre-flush node reaches
// each group that lacks it once: group 1's n nodes the 10 groups above
// 2, group 2's n nodes the 9 groups above 3.
func TestFlushAckShipsOnlyItsOwnEntries(t *testing.T) {
	var groups []amcast.GroupID
	for g := amcast.GroupID(1); g <= 12; g++ {
		groups = append(groups, g)
	}
	r, taps := tapRouter(t, groups)
	const n = 20
	for i := uint64(1); i <= n; i++ {
		r.Multicast(1, prototest.Msg(i, 1, 2))
		r.Multicast(2, prototest.Msg(n+i, 2, 3))
	}
	r.Drain()
	const fid = 1000
	before := core.ReadStats()
	r.Multicast(1, flushMsg(fid, groups))
	r.Drain()
	stats := core.ReadStats().Since(before)

	lca := func(id amcast.MsgID) amcast.GroupID { return amcast.GroupID(1 + (id-1)/n) }
	shipped, sent := 0, uint64(0)
	for _, g := range groups {
		for _, o := range taps[g].outs {
			if o.Env.Msg.ID != fid || o.Env.Hist == nil {
				continue
			}
			d := o.Env.Hist
			sent += uint64(len(d.Nodes))
			for _, hn := range d.Nodes {
				if hn.ID == fid {
					continue
				}
				shipped++
				if lca(hn.ID) != g {
					t.Errorf("group %d's flush envelope to %v carries node %s, created by group %d", g, o.To, hn.ID, lca(hn.ID))
				}
			}
			for _, e := range d.Edges {
				if e.To != fid && !(slices.Contains(r.Seq(g), e.From) && slices.Contains(r.Seq(g), e.To)) {
					t.Errorf("group %d's flush envelope to %v carries edge %s→%s, which it did not create", g, o.To, e.From, e.To)
				}
			}
		}
	}
	if want := n*(len(groups)-2) + n*(len(groups)-3); shipped != want {
		t.Errorf("flush deltas shipped %d pre-flush nodes, want %d", shipped, want)
	}
	if shipped > 2*n*(len(groups)-1) {
		t.Errorf("flush deltas shipped %d pre-flush nodes, more than the creators' %d nodes to each of %d receivers", shipped, 2*n, len(groups)-1)
	}
	if stats.NodesSent[1] != sent {
		t.Errorf("flush nodes sent counter moved by %d, the flush envelopes carry %d", stats.NodesSent[1], sent)
	}
	// Group 2 learns the flush, group 3 group 1's nodes and the flush,
	// groups 4-12 all 2n+1.
	if want := uint64(1 + (n + 1) + (len(groups)-3)*(2*n+1)); stats.NodesNew[1] != want {
		t.Errorf("new flush nodes counter moved by %d, want %d", stats.NodesNew[1], want)
	}
	if stats.NodesSent[0] != 0 || stats.NodesNew[0] != 0 {
		t.Errorf("the flush moved the non-flush counters: %+v", stats)
	}

	// Ordering keeps working above the pruned prefix.
	for i := uint64(2*n + 1); i <= 3*n; i++ {
		r.Multicast(amcast.GroupID(1+i%4), prototest.Msg(i, amcast.GroupID(1+i%4), amcast.GroupID(5+i%8)))
	}
	r.Drain()
	for _, g := range groups {
		if !slices.Contains(r.Seq(g), fid) {
			t.Errorf("group %d did not deliver the flush", g)
		}
		if err := taps[g].CheckHistoryAcyclic(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Recorder.CheckAll(true); err != nil {
		t.Fatal(err)
	}
}

// TestFlushAckBeforeLowerAcks: on the overlay 1 → 2 → 3 → 4, group 3's
// flush ack and its next MSG reach group 4 before group 2's flush ack.
// Group 3 left out of its ack the message group 2 created, yet group 4
// delivers nothing until group 2's ack, which carries that message,
// arrives: the flush is an open dependency that the MSG is ordered after.
// Then it delivers the flush and the MSG — and the state in between
// survives a snapshot round trip.
func TestFlushAckBeforeLowerAcks(t *testing.T) {
	groups := []amcast.GroupID{1, 2, 3, 4}
	r, taps := tapRouter(t, groups)
	r.Multicast(1, prototest.Msg(1, 1, 2))
	r.Multicast(2, prototest.Msg(2, 2, 3))
	r.Drain()

	const fid = 100
	r.Multicast(1, flushMsg(fid, groups))
	r.Step(1, 2, amcast.KindMsg, fid) // 2 delivers the flush, acks to 3 and 4
	r.Step(1, 3, amcast.KindMsg, fid)
	r.Step(2, 3, amcast.KindAck, fid) // 3 delivers the flush, acks to 4
	r.Multicast(3, prototest.Msg(3, 3, 4))

	carries := func(g amcast.GroupID, id amcast.MsgID) bool {
		for _, o := range taps[g].outs {
			if o.To == amcast.GroupNode(4) && o.Env.Msg.ID == fid && o.Env.Hist != nil &&
				slices.ContainsFunc(o.Env.Hist.Nodes, func(hn amcast.HistNode) bool { return hn.ID == id }) {
				return true
			}
		}
		return false
	}
	if carries(3, 2) || !carries(2, 2) {
		t.Fatalf("message 2 rides group 3's flush ack to 4: %v, group 2's: %v; want only group 2's", carries(3, 2), carries(2, 2))
	}

	d := taps[4]
	r.Step(1, 4, amcast.KindMsg, fid)
	r.Step(3, 4, amcast.KindAck, fid)
	r.Step(3, 4, amcast.KindMsg, 3)
	if got := r.Seq(4); len(got) > 0 {
		t.Fatalf("group 4 delivered %v before group 2's flush ack", got)
	}

	// The waiting state round-trips: a restored engine fed what group 4
	// is fed from here on behaves as group 4 does.
	dump := d.DebugDump()
	fresh := core.MustNew(core.Config{Group: 4, Overlay: overlay.MustCDAG(groups)})
	prototest.CheckBinarySnapshot(t, d.Engine, fresh, core.UnmarshalSnapshot)
	if fresh.DebugDump() != dump {
		t.Fatalf("restored engine dumps\n%s\nwant\n%s", fresh.DebugDump(), dump)
	}
	d.in, d.outs = nil, nil
	d.TakeDeliveries()

	r.Step(2, 4, amcast.KindAck, fid)
	r.Drain()
	if got, want := r.Seq(4), ids(fid, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("group 4 delivered %v, want %v", got, want)
	}
	var outs []amcast.Output
	for _, env := range d.in {
		outs = append(outs, fresh.OnEnvelope(env)...)
	}
	if !reflect.DeepEqual(outs, d.outs) {
		t.Fatalf("restored engine sent %v, group 4 sent %v", outs, d.outs)
	}
	var got []amcast.MsgID
	for _, dl := range fresh.TakeDeliveries() {
		got = append(got, dl.Msg.ID)
	}
	if want := ids(fid, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored engine delivered %v, want %v", got, want)
	}
	if err := r.Recorder.CheckAll(true); err != nil {
		t.Fatal(err)
	}
}
