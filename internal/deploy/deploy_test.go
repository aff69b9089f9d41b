package deploy_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"flexcast"
	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/deploy"
	"flexcast/internal/durable"
	"flexcast/internal/gtpcc"
	"flexcast/internal/hierarchical"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
	"flexcast/internal/skeen"
	"flexcast/internal/store"
	"flexcast/internal/wan"
)

var protocols = []deploy.Protocol{deploy.FlexCast, deploy.Skeen, deploy.Hierarchical}

// The wrapper stacks under test, bottom up.
const (
	bare = iota
	withStore
	withStoreDurable
	numStacks
)

var stackNames = [numStacks]string{"bare", "store", "store+durable"}

const (
	testGroups   = 5
	testSeed     = 7
	snapEvery    = 16
	streamLength = 120
)

func groupIDs(n int) []amcast.GroupID {
	gs := make([]amcast.GroupID, n)
	for i := range gs {
		gs[i] = amcast.GroupID(i + 1)
	}
	return gs
}

// chainAndStar are the small-group default overlays built by hand: the
// chain C-DAG over 1..n and the star tree rooted at group 1.
func chainAndStar(n int) (*overlay.CDAG, *overlay.Tree) {
	gs := groupIDs(n)
	return overlay.MustCDAG(gs), overlay.MustTree(gs[0], map[amcast.GroupID][]amcast.GroupID{gs[0]: gs[1:]})
}

// oldEntry is the per-protocol client entry route as the root package's
// entry functions state it.
func oldEntry(p deploy.Protocol, ov *overlay.CDAG, tree *overlay.Tree) func(amcast.Message) []amcast.NodeID {
	switch p {
	case deploy.FlexCast:
		return func(m amcast.Message) []amcast.NodeID { return []amcast.NodeID{flexcast.FlexCastEntry(ov, m)} }
	case deploy.Skeen:
		return flexcast.SkeenEntry
	default:
		return func(m amcast.Message) []amcast.NodeID { return []amcast.NodeID{flexcast.HierarchicalEntry(tree, m)} }
	}
}

// stack is one assembled deployment as the tests drive it: a factory,
// a route, a decoder, the store executors behind the factory, and the
// durable backend's root directory.
type stack struct {
	newEngine func(g amcast.GroupID) (amcast.SnapshotEngine, error)
	route     func(amcast.Message) []amcast.NodeID
	decode    func([]byte) (amcast.Snapshot, error)
	executor  func(g amcast.GroupID) *store.Executor
	dir       string
}

// assembled builds a stack through the package under test.
func assembled(t *testing.T, p deploy.Protocol, kind int) stack {
	return assembledUnder(t, p, kind, nil)
}

// assembledUnder is assembled with wrap, when set, interposed between
// the durable backend and what it persists — where the benchmark puts
// its span decorator.
func assembledUnder(t *testing.T, p deploy.Protocol, kind int, wrap func(amcast.SnapshotEngine) amcast.SnapshotEngine) stack {
	t.Helper()
	d, err := deploy.New(deploy.Spec{Protocol: p, Groups: testGroups})
	if err != nil {
		t.Fatal(err)
	}
	if kind >= withStore {
		d = d.WithStore(store.Config{Seed: testSeed}, true, 0, 0)
	}
	s := stack{}
	if kind >= withStoreDurable {
		if wrap != nil {
			under, inner := *d, d.NewEngine
			under.NewEngine = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
				eng, err := inner(g)
				if err != nil {
					return nil, err
				}
				return wrap(eng), nil
			}
			d = &under
		}
		s.dir = t.TempDir()
		d = d.WithDurable(s.dir, durable.Options{SnapshotEvery: snapEvery, FsyncEvery: -1})
	}
	s.newEngine, s.route, s.decode = d.NewEngine, d.Route, d.DecodeSnapshot
	s.executor = func(g amcast.GroupID) *store.Executor { return d.Executors[g] }
	return s
}

// passThrough forwards the SnapshotEngine and BatchStepper calls and
// nothing else, like the benchmark's span decorator.
type passThrough struct{ inner amcast.SnapshotEngine }

func (e passThrough) Group() amcast.GroupID { return e.inner.Group() }
func (e passThrough) OnEnvelope(env amcast.Envelope) []amcast.Output {
	return e.inner.OnEnvelope(env)
}
func (e passThrough) BatchStep(envs []amcast.Envelope) []amcast.Output {
	return amcast.BatchStep(e.inner, envs)
}
func (e passThrough) TakeDeliveries() []amcast.Delivery { return e.inner.TakeDeliveries() }
func (e passThrough) Snapshot() amcast.Snapshot         { return e.inner.Snapshot() }
func (e passThrough) Restore(s amcast.Snapshot) error   { return e.inner.Restore(s) }

// checkTombstonesJournaled closes a driven flexcast store+durable stack
// and checks what it left on disk: every group's first delivery is in
// journal.log as a fixed-width tail entry and in no snapshot body, and
// the snapshot body plus the journal prefix it names is the whole
// snapshot recovery restores.
func checkTombstonesJournaled(t *testing.T, s stack, r *prototest.Router, engines map[amcast.GroupID]amcast.SnapshotEngine) {
	t.Helper()
	for _, g := range groupIDs(testGroups) {
		if err := engines[g].(*durable.Engine).Close(); err != nil {
			t.Fatal(err)
		}
		dir := deploy.GroupDir(s.dir, g)
		journal, err := os.ReadFile(filepath.Join(dir, "journal.log"))
		if err != nil || len(journal) == 0 {
			t.Fatalf("group %d: journal.log: %d bytes, %v", g, len(journal), err)
		}
		info, err := durable.Inspect(dir)
		if err != nil || info.SnapshotEpoch == 0 {
			t.Fatalf("group %d: no snapshot on disk (epochs %v, %v)", g, info.Epochs, err)
		}
		snap := info.SnapshotBody
		first := binary.LittleEndian.AppendUint64(nil, uint64(r.Seq(g)[0]))
		if !bytes.Contains(journal, first) || bytes.Contains(snap, first) {
			t.Errorf("group %d: first tombstone in journal: %v, in the snapshot body: %v; want it journaled only",
				g, bytes.Contains(journal, first), bytes.Contains(snap, first))
		}
		fresh, err := s.newEngine(g)
		if err != nil {
			t.Fatalf("group %d: recovery: %v", g, err)
		}
		de := fresh.(*durable.Engine)
		st := de.Recovery()
		de.Close()
		if tail := info.SnapshotTail; tail == 0 || st.SnapshotEpoch != info.SnapshotEpoch || st.SnapshotBytes != len(snap)+tail {
			t.Errorf("group %d: restored %d snapshot bytes opening epoch %d from a %d-byte body opening epoch %d and naming %d journal bytes",
				g, st.SnapshotBytes, st.SnapshotEpoch, len(snap), info.SnapshotEpoch, tail)
		}
	}
}

// direct builds the same stack by hand from the engine, store and
// durable constructors — the reference the assembler is held to.
func direct(t *testing.T, p deploy.Protocol, kind int) stack {
	t.Helper()
	ov, tree := chainAndStar(testGroups)
	var (
		proto  func(g amcast.GroupID) (amcast.SnapshotEngine, error)
		decode func([]byte) (amcast.Snapshot, error)
	)
	switch p {
	case deploy.FlexCast:
		proto = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return core.New(core.Config{Group: g, Overlay: ov})
		}
		decode = core.UnmarshalSnapshot
	case deploy.Skeen:
		proto = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return skeen.New(skeen.Config{Group: g, Groups: groupIDs(testGroups)})
		}
		decode = skeen.UnmarshalSnapshot
	default:
		proto = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return hierarchical.New(hierarchical.Config{Group: g, Tree: tree})
		}
		decode = hierarchical.UnmarshalSnapshot
	}
	s := stack{newEngine: proto, route: oldEntry(p, ov, tree), decode: decode}
	if kind == bare {
		return s
	}
	execs := make(map[amcast.GroupID]*store.Executor)
	s.executor = func(g amcast.GroupID) *store.Executor { return execs[g] }
	s.decode = func(data []byte) (amcast.Snapshot, error) { return store.UnmarshalSnapshot(data, decode) }
	s.newEngine = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
		eng, err := proto(g)
		if err != nil {
			return nil, err
		}
		ex, err := store.NewExecutor(eng, store.Config{Warehouse: g, Seed: testSeed}, true)
		execs[g] = ex
		return ex, err
	}
	if kind == withStore {
		return s
	}
	dir, executing, composed := t.TempDir(), s.newEngine, s.decode
	s.newEngine = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
		eng, err := executing(g)
		if err != nil {
			return nil, err
		}
		return durable.Wrap(eng, durable.Options{
			Dir:           filepath.Join(dir, fmt.Sprintf("group-%d", g)),
			SnapshotEvery: snapEvery,
			FsyncEvery:    -1,
			Decode:        composed,
		})
	}
	return s
}

// drive runs the seeded gTPC-C stream through a stack on a scripted
// router, draining every few multicasts so messages overlap in flight;
// the last `tail` multicasts stay undrained (mid-run state for the
// snapshot tests). It returns the router and the engines it built.
func drive(t *testing.T, s stack, tail int) (*prototest.Router, map[amcast.GroupID]amcast.SnapshotEngine) {
	t.Helper()
	groups := groupIDs(testGroups)
	engines := make(map[amcast.GroupID]amcast.SnapshotEngine)
	r := prototest.NewRouter(t, groups, func(g amcast.GroupID) amcast.Engine {
		eng, err := s.newEngine(g)
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		engines[g] = eng
		return eng
	})
	t.Cleanup(func() {
		for _, eng := range engines {
			if de, ok := eng.(*durable.Engine); ok {
				de.Close()
			}
		}
	})
	gens := make([]*gtpcc.Gen, len(groups))
	for i, home := range groups {
		var nearest []amcast.GroupID
		for _, g := range groups {
			if g != home {
				nearest = append(nearest, g)
			}
		}
		gens[i] = gtpcc.MustNew(gtpcc.Config{Home: home, Nearest: nearest, Locality: 0.5},
			rand.New(rand.NewSource(testSeed+int64(i))))
	}
	for i := 0; i < streamLength; i++ {
		tx := gens[i%len(gens)].Next()
		m := amcast.Message{
			ID:      amcast.NewMsgID(0, uint64(i+1)),
			Sender:  amcast.ClientNode(0),
			Dst:     tx.Dst,
			Payload: gtpcc.EncodeTx(tx),
		}
		for _, at := range s.route(m) {
			r.Multicast(at.Group(), m)
		}
		if i%3 == 2 && i < streamLength-tail {
			r.Drain()
		}
	}
	return r, engines
}

// TestAssembledEqualsDirect: for every protocol and wrapper stack, the
// assembler's engines and hand-built ones deliver the same sequences at
// every group and execute to the same store digests.
func TestAssembledEqualsDirect(t *testing.T) {
	for _, p := range protocols {
		for kind := 0; kind < numStacks; kind++ {
			p, kind := p, kind
			t.Run(p.Name()+"/"+stackNames[kind], func(t *testing.T) {
				got, want := assembled(t, p, kind), direct(t, p, kind)
				gr, engines := drive(t, got, 0)
				wr, _ := drive(t, want, 0)
				delivered := 0
				for _, g := range groupIDs(testGroups) {
					if !reflect.DeepEqual(gr.Seq(g), wr.Seq(g)) {
						t.Errorf("group %d delivery sequence diverges:\n assembled %v\n direct    %v", g, gr.Seq(g), wr.Seq(g))
					}
					delivered += len(gr.Seq(g))
					if kind == bare {
						continue
					}
					if a, b := got.executor(g).Digest(), want.executor(g).Digest(); a != b {
						t.Errorf("group %d store digest diverges: %x != %x", g, a[:8], b[:8])
					}
				}
				if delivered < streamLength {
					t.Fatalf("only %d deliveries from %d multicasts", delivered, streamLength)
				}
				if p == deploy.FlexCast && kind == withStoreDurable {
					// The snapshot's tail reaches the journal through the
					// snapshot value, so a decorator between the backend and
					// the executor cannot hide it.
					checkTombstonesJournaled(t, got, gr, engines)
					under := assembledUnder(t, p, kind, func(eng amcast.SnapshotEngine) amcast.SnapshotEngine { return passThrough{eng} })
					ur, engines := drive(t, under, 0)
					checkTombstonesJournaled(t, under, ur, engines)
				}
			})
		}
	}
}

// TestDecodeSnapshotMatchesStack: a mid-run snapshot of every group
// round-trips through its own stack's decoder into a fresh engine of
// that stack, and the decoder of every stack with another protocol or
// another snapshotting wrapper set rejects it.
func TestDecodeSnapshotMatchesStack(t *testing.T) {
	type built struct {
		p    deploy.Protocol
		kind int
		s    stack
	}
	var all []built
	for _, p := range protocols {
		for kind := 0; kind < numStacks; kind++ {
			all = append(all, built{p, kind, assembled(t, p, kind)})
		}
	}
	for _, b := range all {
		b := b
		t.Run(b.p.Name()+"/"+stackNames[b.kind], func(t *testing.T) {
			_, engines := drive(t, b.s, 12)
			fresh := assembled(t, b.p, b.kind)
			for _, g := range groupIDs(testGroups) {
				spare, err := fresh.newEngine(g)
				if err != nil {
					t.Fatal(err)
				}
				data := prototest.CheckBinarySnapshot(t, engines[g], spare, b.s.decode)
				if de, ok := spare.(*durable.Engine); ok {
					de.Close()
				}
				for _, other := range all {
					// The durable backend snapshots what it wraps, so it
					// does not change the snapshot format.
					if other.p == b.p && (other.kind == bare) == (b.kind == bare) {
						continue
					}
					if _, err := other.s.decode(data); err == nil {
						t.Errorf("group %d: %s/%s decoder accepted a %s/%s snapshot", g,
							other.p.Name(), stackNames[other.kind], b.p.Name(), stackNames[b.kind])
					}
				}
			}
		})
	}
}

// destSets enumerates every 1-, 2- and 3-group destination set.
func destSets(groups []amcast.GroupID) [][]amcast.GroupID {
	var out [][]amcast.GroupID
	for i, a := range groups {
		out = append(out, []amcast.GroupID{a})
		for j := i + 1; j < len(groups); j++ {
			out = append(out, []amcast.GroupID{a, groups[j]})
			for k := j + 1; k < len(groups); k++ {
				out = append(out, []amcast.GroupID{a, groups[j], groups[k]})
			}
		}
	}
	return out
}

// TestRouteAndDefaults: Route is the old per-protocol entry on explicit
// O1/T1, and the defaults derived from a group count route exactly like
// wan.O1()/wan.T1() at 12 groups and like the chain C-DAG over 1..n /
// the star tree rooted at group 1 otherwise. Lca over every pair fixes
// a C-DAG's rank order and a tree's parent map, so equal routes mean
// equal overlays.
func TestRouteAndDefaults(t *testing.T) {
	type tc struct {
		name string
		spec deploy.Spec
		ov   *overlay.CDAG
		tree *overlay.Tree
	}
	cases := []tc{
		{"explicit", deploy.Spec{Overlay: wan.O1(), Tree: wan.T1()}, wan.O1(), wan.T1()},
		{"default-12", deploy.Spec{Groups: wan.NumRegions}, wan.O1(), wan.T1()},
	}
	for _, n := range []int{1, 2, 5, 13} {
		ov, tree := chainAndStar(n)
		cases = append(cases, tc{fmt.Sprintf("default-%d", n), deploy.Spec{Groups: n}, ov, tree})
	}
	for _, c := range cases {
		for _, p := range protocols {
			c, p := c, p
			t.Run(c.name+"/"+p.Name(), func(t *testing.T) {
				spec := c.spec
				spec.Protocol = p
				d, err := deploy.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				if want := c.ov.Groups(); !reflect.DeepEqual(d.Groups, want) {
					t.Fatalf("groups %v, want %v", d.Groups, want)
				}
				if d.Genuine != (p != deploy.Hierarchical) {
					t.Errorf("Genuine = %v", d.Genuine)
				}
				entry := oldEntry(p, c.ov, c.tree)
				for _, dst := range destSets(d.Groups) {
					m := amcast.Message{ID: 1, Sender: amcast.ClientNode(0), Dst: dst}
					if got, want := d.Route(m), entry(m); !reflect.DeepEqual(got, want) {
						t.Fatalf("Route(%v) = %v, want %v", dst, got, want)
					}
				}
				for _, home := range d.Groups {
					var want []amcast.GroupID
					if len(d.Groups) == wan.NumRegions {
						want = wan.NearestOrder(home)
					} else {
						for _, g := range d.Groups {
							if g != home {
								want = append(want, g)
							}
						}
					}
					if got := d.Nearest(home); !reflect.DeepEqual(got, want) {
						t.Fatalf("Nearest(%d) = %v, want %v", home, got, want)
					}
				}
			})
		}
	}
	for _, p := range protocols {
		if _, err := deploy.New(deploy.Spec{Protocol: p}); err == nil {
			t.Errorf("%s: spec with no overlay and no group count accepted", p.Name())
		}
	}
	if _, err := deploy.New(deploy.Spec{Groups: 3}); err == nil {
		t.Error("spec with no protocol accepted")
	}
}

// TestDeliveredSetBeyondCountLimit: Skeen's delivered set and the
// hierarchical engine's seen set are as long as the run, so a long-lived
// group's record holds more ids than the codec's collection limit
// (4 194 304) and must still read: the set's length is bounded by the
// bytes the record holds, not by that limit.
func TestDeliveredSetBeyondCountLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("a 16 MB record per protocol")
	}
	const n = 1<<22 + 1
	for _, c := range []struct {
		p  deploy.Protocol
		at int // the offset of the set's length in the empty state's record
	}{{deploy.Skeen, 3}, {deploy.Hierarchical, 1}} {
		t.Run(c.p.Name(), func(t *testing.T) {
			dep, err := deploy.New(deploy.Spec{Protocol: c.p, Groups: 3})
			if err != nil {
				t.Fatal(err)
			}
			fresh := func() amcast.DeltaEngine {
				eng, err := dep.NewEngine(1)
				if err != nil {
					t.Fatal(err)
				}
				return eng.(amcast.DeltaEngine)
			}
			empty, _, err := fresh().AppendDelta(nil, nil, nil)
			if err != nil || empty[c.at] != 0 {
				t.Fatalf("empty record %x: %v", empty, err)
			}
			rec := binary.AppendUvarint(append([]byte(nil), empty[:c.at]...), n)
			for id := uint64(1); id <= n; id++ {
				rec = append(binary.AppendUvarint(rec, id), 1)
			}
			rec = append(rec, empty[c.at+1:]...)
			eng := fresh()
			if err := eng.ApplyDelta(rec); err != nil {
				t.Fatalf("a record of %d ids: %v", n, err)
			}
			if got, _, err := eng.AppendDelta(nil, nil, nil); err != nil || !bytes.Equal(got, rec) {
				t.Fatalf("the applied record re-encodes to %d bytes, not its own %d: %v", len(got), len(rec), err)
			}
			if err := fresh().ApplyDelta(append(rec, 0)); err == nil {
				t.Fatal("a record with a trailing byte applied")
			}
			if err := fresh().ApplyDelta(rec[:len(rec)-1]); err == nil {
				t.Fatal("a record one byte short applied")
			}
		})
	}
}
