package amcast

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// idModel is the reference: the map the set replaces in the engines.
type idModel map[MsgID]struct{}

// checkAgainst compares everything the set answers with the model:
// membership of every probe, the count, and the ascending iteration.
func checkAgainst(t testing.TB, s *IDSet, ref idModel, probes []MsgID) {
	t.Helper()
	for _, id := range probes {
		if _, want := ref[id]; s.Has(id) != want {
			t.Fatalf("Has(%s) = %v, model %v", id, !want, want)
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len() = %d, model %d", s.Len(), len(ref))
	}
	want := make([]MsgID, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	slices.Sort(want)
	var got []MsgID
	s.Ascend(func(id MsgID) bool { got = append(got, id); return true })
	if !slices.Equal(got, want) {
		t.Fatalf("Ascend = %v, model %v", got, want)
	}
}

// boundaryUniverse is the small scope: the first and last id of a page
// and of the id space, the first id of the next page, and the same
// sequence numbers under a second and the largest client.
func boundaryUniverse() []MsgID {
	return []MsgID{
		NewMsgID(0, 0), NewMsgID(0, idPageIDs-1), NewMsgID(0, idPageIDs), NewMsgID(0, 1<<40-1),
		NewMsgID(1, 0), NewMsgID(1, idPageIDs-1), NewMsgID(1, 1<<40-1),
		NewMsgID(1<<24-1, 0),
	}
}

// TestIDSetExhaustiveBoundaries inserts the boundary universe in every
// order (8! = 40320 sequences) and checks the set against the model after
// every insertion — so every subset is reached, as a prefix, under every
// order in which its pages can have been created.
func TestIDSetExhaustiveBoundaries(t *testing.T) {
	u := boundaryUniverse()
	perm := make([]int, len(u))
	for i := range perm {
		perm[i] = i
	}
	var visit func(k int)
	orders := 0
	visit = func(k int) {
		if k == len(perm) {
			orders++
			s, ref := &IDSet{}, idModel{}
			for _, i := range perm {
				if added, fresh := s.Add(u[i]), !s.Has(u[i]); !added || fresh {
					t.Fatalf("order %v: Add(%s) = %v, then Has = %v", perm, u[i], added, !fresh)
				}
				ref[u[i]] = struct{}{}
				checkAgainst(t, s, ref, u)
			}
			if s.Add(u[perm[0]]) {
				t.Fatalf("order %v: re-adding %s reported it absent", perm, u[perm[0]])
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			visit(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	visit(0)
	if orders != 40320 {
		t.Fatalf("visited %d orders", orders)
	}
}

// TestIDSetCloneIsIndependent checks that a clone and its source diverge
// freely: snapshots hold clones while the engine keeps adding.
func TestIDSetCloneIsIndependent(t *testing.T) {
	s := &IDSet{}
	for _, id := range boundaryUniverse()[:4] {
		s.Add(id)
	}
	c := s.Clone()
	s.Add(NewMsgID(0, 1))
	c.Add(NewMsgID(0, 2))
	if s.Has(NewMsgID(0, 2)) || c.Has(NewMsgID(0, 1)) || s.Len() != 5 || c.Len() != 5 {
		t.Fatalf("clone shares state: source len %d, clone len %d", s.Len(), c.Len())
	}
}

// fuzzID decodes one id from three fuzz bytes, drawn from a space dense
// around page and client edges so random inputs keep hitting them.
func fuzzID(c, hi, lo byte) MsgID {
	clients := [...]int{0, 1, 2, 1<<24 - 1}
	bases := [...]uint64{0, idPageIDs - 128, 2*idPageIDs - 128, 1 << 24, 1<<40 - 256}
	seq := bases[int(hi)%len(bases)] + uint64(hi/byte(len(bases)))%2*128 + uint64(lo)
	return NewMsgID(clients[int(c)%len(clients)], seq&(1<<40-1))
}

// FuzzIDSetOps drives the set and the map model with the same adds and
// probes, comparing every answer and, at the end, the iteration.
func FuzzIDSetOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 255, 0, 3, 9, 200})
	seed := make([]byte, 0, 512)
	for i := 0; i < 128; i++ {
		seed = binary.LittleEndian.AppendUint32(seed, uint32(i*2654435761))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		s, ref := &IDSet{}, idModel{}
		var seen []MsgID
		for ; len(ops) >= 4; ops = ops[4:] {
			id := fuzzID(ops[1], ops[2], ops[3])
			if ops[0]%3 == 0 {
				if got, want := s.Has(id), inModel(ref, id); got != want {
					t.Fatalf("Has(%s) = %v, model %v", id, got, want)
				}
				continue
			}
			if got, held := s.Add(id), inModel(ref, id); got == held {
				t.Fatalf("Add(%s) = %v, model already held it: %v", id, got, held)
			}
			ref[id] = struct{}{}
			seen = append(seen, id)
		}
		checkAgainst(t, s, ref, seen)
		checkAgainst(t, s.Clone(), ref, seen)
	})
}

func inModel(ref idModel, id MsgID) bool {
	_, ok := ref[id]
	return ok
}

// benchIDs is what a group sees of one client's 16 sessions (loadgen's
// worker id spaces, worker << 24): every stride-th id of each session,
// interleaved round robin, n ids in all.
func benchIDs(n, stride int) []MsgID {
	const sessions = 16
	ids := make([]MsgID, 0, n)
	for k := 0; len(ids) < n; k++ {
		for w := 0; w < sessions && len(ids) < n; w++ {
			ids = append(ids, NewMsgID(0, uint64(w)<<24+uint64(k*stride)))
		}
	}
	return ids
}

// retained returns the live heap bytes that build leaves reachable
// through the value it returns.
func retained(build func() any) (any, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return v, after.HeapAlloc - before.HeapAlloc
}

// BenchmarkIDSet reports, per density of the ids a group sees of a
// client's sessions (1: the group serves them; 1/12: one of twelve
// destinations; 1/400: a rarely involved group), the set's retained
// bytes per id against map[MsgID]struct{}'s — the structure it
// replaces — and the cost of one membership probe.
func BenchmarkIDSet(b *testing.B) {
	const n = 100_000
	for _, stride := range []int{1, 12, 400} {
		ids := benchIDs(n, stride)
		b.Run(fmt.Sprintf("density=1/%d/set", stride), func(b *testing.B) {
			v, bytes := retained(func() any {
				s := &IDSet{}
				for _, id := range ids {
					s.Add(id)
				}
				return s
			})
			s := v.(*IDSet)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !s.Has(ids[i%n]) {
					b.Fatal("lost an id")
				}
			}
			b.ReportMetric(float64(bytes)/n, "B/id")
		})
		b.Run(fmt.Sprintf("density=1/%d/map", stride), func(b *testing.B) {
			v, bytes := retained(func() any {
				m := make(map[MsgID]struct{})
				for _, id := range ids {
					m[id] = struct{}{}
				}
				return m
			})
			m := v.(map[MsgID]struct{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := m[ids[i%n]]; !ok {
					b.Fatal("lost an id")
				}
			}
			b.ReportMetric(float64(bytes)/n, "B/id")
		})
	}
}
