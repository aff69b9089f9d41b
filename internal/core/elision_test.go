package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/durable"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
)

// elisionScript is the g/h scenario m1{g,h}, L1..Lk{g}, m2{g,h} as the
// requests arriving at the lca g (ids: m1 = 1, m2 = 2, Li = 100+i).
func elisionScript(k int) []amcast.Envelope {
	req := func(m amcast.Message) amcast.Envelope {
		return amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(0), Msg: m}
	}
	envs := []amcast.Envelope{req(prototest.Msg(1, gA, gB))}
	for i := 1; i <= k; i++ {
		envs = append(envs, req(prototest.Msg(uint64(100+i), gA)))
	}
	return append(envs, req(prototest.Msg(2, gA, gB)))
}

func abEngine(g amcast.GroupID) *core.Engine {
	return core.MustNew(core.Config{Group: g, Overlay: overlay.MustCDAG([]amcast.GroupID{gA, gB})})
}

// feedAll steps eng through envs and returns every output and delivery.
func feedAll(eng amcast.Engine, envs []amcast.Envelope) ([]amcast.Output, []amcast.Delivery) {
	var outs []amcast.Output
	var dels []amcast.Delivery
	for _, env := range envs {
		outs = append(outs, eng.OnEnvelope(env)...)
		dels = append(dels, eng.TakeDeliveries()...)
	}
	return outs, dels
}

// TestSingleGroupMessagesStayOutOfHistory pins DESIGN.md §4 deviation 9:
// messages addressed to one group are delivered but never become history
// nodes, so the delta shipped with m2 holds exactly the contracted edge
// m1 → m2 and the history size does not depend on the local traffic
// between the two multi-group messages.
func TestSingleGroupMessagesStayOutOfHistory(t *testing.T) {
	for _, k := range []int{0, 1, 7, 200} {
		g := abEngine(gA)
		outs, dels := feedAll(g, elisionScript(k))
		if len(dels) != k+2 {
			t.Fatalf("k=%d: %d deliveries at g, want %d", k, len(dels), k+2)
		}
		for i, d := range dels {
			if d.Seq != uint64(i) {
				t.Fatalf("k=%d: delivery %d has seq %d", k, i, d.Seq)
			}
		}
		if len(outs) != 2 {
			t.Fatalf("k=%d: %d outputs, want the two MSGs to h", k, len(outs))
		}
		want1 := &amcast.HistDelta{Nodes: []amcast.HistNode{{ID: 1, Dst: []amcast.GroupID{gA, gB}}}}
		want2 := &amcast.HistDelta{
			Nodes: []amcast.HistNode{{ID: 2, Dst: []amcast.GroupID{gA, gB}}},
			Edges: []amcast.HistEdge{{From: 1, To: 2}},
		}
		if got := outs[0].Env.Hist; !reflect.DeepEqual(got, want1) {
			t.Fatalf("k=%d: m1's delta = %+v, want %+v", k, got, want1)
		}
		if got := outs[1].Env.Hist; !reflect.DeepEqual(got, want2) {
			t.Fatalf("k=%d: m2's delta = %+v, want %+v", k, got, want2)
		}
		if g.HistoryLen() != 2 {
			t.Fatalf("k=%d: history holds %d nodes at g, want 2", k, g.HistoryLen())
		}

		// h interleaves its own local traffic with the two MSGs: same
		// history, and the order m1 ≺ m2 is what it delivers.
		h := abEngine(gB)
		var hin []amcast.Envelope
		for i, o := range outs {
			hin = append(hin, o.Env)
			for j := 0; j < k; j++ {
				hin = append(hin, amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(1),
					Msg: prototest.Msg(uint64(1000*(i+1)+j), gB)})
			}
		}
		_, hdels := feedAll(h, hin)
		if len(hdels) != 2*k+2 || hdels[0].Msg.ID != 1 || hdels[k+1].Msg.ID != 2 {
			t.Fatalf("k=%d: h delivered %d messages, m1/m2 out of place", k, len(hdels))
		}
		if h.HistoryLen() != 2 || len(h.OpenDependencies()) != 0 {
			t.Fatalf("k=%d: h holds %d nodes, open %v", k, h.HistoryLen(), h.OpenDependencies())
		}
	}
}

// TestElisionSurvivesSnapshotAndWAL cuts the scenario after every prefix
// and continues it three ways — on the live engine, on an engine restored
// from the marshalled snapshot, and on an engine recovered from the
// durable backend's WAL — which must produce the same outputs,
// deliveries and final state.
func TestElisionSurvivesSnapshotAndWAL(t *testing.T) {
	script := elisionScript(5)
	for cut := 0; cut <= len(script); cut++ {
		live := abEngine(gA)
		feedAll(live, script[:cut])

		data, err := live.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := core.UnmarshalSnapshot(data)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		restored := abEngine(gA)
		if err := restored.Restore(snap); err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		opts := durable.Options{Dir: dir, SnapshotEvery: 3, FsyncEvery: -1, Decode: core.UnmarshalSnapshot}
		de, err := durable.Wrap(abEngine(gA), opts)
		if err != nil {
			t.Fatal(err)
		}
		feedAll(de, script[:cut])
		de.Close()
		recovered := abEngine(gA)
		re, err := durable.Wrap(recovered, opts)
		if err != nil {
			t.Fatalf("cut %d: recover: %v", cut, err)
		}

		wantOuts, wantDels := feedAll(live, script[cut:])
		wantState, _ := live.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
		for name, eng := range map[string]amcast.Engine{"restored": restored, "recovered": re} {
			outs, dels := feedAll(eng, script[cut:])
			if !reflect.DeepEqual(outs, wantOuts) || !reflect.DeepEqual(dels, wantDels) {
				t.Fatalf("cut %d: %s engine diverged:\nouts %+v\nwant %+v", cut, name, outs, wantOuts)
			}
		}
		re.Close()
		for name, eng := range map[string]*core.Engine{"restored": restored, "recovered": recovered} {
			state, _ := eng.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
			if !bytes.Equal(state, wantState) {
				t.Fatalf("cut %d: %s engine's final state differs from the live engine's", cut, name)
			}
		}
	}
}
