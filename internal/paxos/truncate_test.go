package paxos

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// decideN drives n values through a 3-replica cluster and returns it
// with all replicas having delivered everything.
func decideN(t *testing.T, n int) *cluster {
	t.Helper()
	c := newCluster(t, 3, 1)
	for i := 0; i < n; i++ {
		c.propose(0, fmt.Sprintf("v%03d", i))
	}
	c.run(40 * n)
	for id, r := range c.reps {
		if got := int(r.Decided()); got != n {
			t.Fatalf("replica %d decided %d of %d", id, got, n)
		}
	}
	return c
}

func TestTruncateBeforeDropsOnlyDeliveredPrefix(t *testing.T) {
	c := decideN(t, 12)
	r := c.reps[1]
	r.TruncateBefore(7)
	if r.Base() != 7 {
		t.Fatalf("base %d, want 7", r.Base())
	}
	// Retained suffix is intact and indexed correctly.
	suffix := r.DecidedLog()
	if len(suffix) != 5 {
		t.Fatalf("retained %d entries, want 5", len(suffix))
	}
	for i, v := range suffix {
		if want := fmt.Sprintf("v%03d", 7+i); string(v) != want {
			t.Fatalf("suffix[%d] = %q, want %q", i, v, want)
		}
	}
	// Dropped entries are genuinely gone: nothing reachable from the
	// replica — the spare capacity of its slices included — still
	// refers to their values, on the follower or on the leader.
	c.reps[0].TruncateBefore(7)
	for _, rep := range []*Replica{r, c.reps[0]} {
		refs := referencedValues(rep)
		for i, v := range c.log[1][:7] {
			if refs[unsafe.SliceData(v)] {
				t.Fatalf("replica %d still references the value of truncated instance %d", rep.ID(), i)
			}
		}
		for i, v := range c.log[1][7:] {
			if !refs[unsafe.SliceData(v)] {
				t.Fatalf("replica %d lost the value of retained instance %d", rep.ID(), 7+i)
			}
		}
		if rep.win.n != 0 {
			t.Fatalf("replica %d holds state for %d instances after delivering everything", rep.ID(), rep.win.n)
		}
	}
	// The collector agrees: on a replica that decides alone, the values
	// of a truncated prefix are freed.
	solo := MustNewReplica(Config{ID: 0, N: 1})
	var freed atomic.Int32
	for i := 0; i < 12; i++ {
		v := make([]byte, 64)
		if i < 7 {
			runtime.SetFinalizer(&v[0], func(*byte) { freed.Add(1) })
		}
		solo.Propose(v)
	}
	if solo.Decided() != 12 || len(solo.TakeDecisions()) != 12 {
		t.Fatalf("solo replica decided %d of 12", solo.Decided())
	}
	solo.TruncateBefore(7)
	for deadline := time.Now().Add(10 * time.Second); freed.Load() < 7; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 7 truncated values freed", freed.Load())
		}
		runtime.GC()
	}
	runtime.KeepAlive(solo)
	// Truncation beyond the delivered prefix clamps; truncation below the
	// floor is a no-op.
	r.TruncateBefore(100)
	if r.Base() != r.Decided() {
		t.Fatalf("over-truncation: base %d, want clamp at %d", r.Base(), r.Decided())
	}
	r.TruncateBefore(3)
	if r.Base() != r.Decided() {
		t.Fatal("truncation floor moved backwards")
	}
}

func TestSuffixFromClampsAtBase(t *testing.T) {
	c := decideN(t, 10)
	r := c.reps[0]
	r.TruncateBefore(6)
	if got := r.SuffixFrom(2); len(got) != 4 || string(got[0]) != "v006" {
		t.Fatalf("SuffixFrom below base: got %d entries starting %q, want 4 from v006", len(got), got[0])
	}
	if got := r.SuffixFrom(8); len(got) != 2 || string(got[0]) != "v008" {
		t.Fatalf("SuffixFrom(8): got %d entries", len(got))
	}
	if got := r.SuffixFrom(10); got != nil {
		t.Fatalf("SuffixFrom at end: got %d entries, want none", len(got))
	}
}

// TestTruncatedClusterKeepsDeciding is the safety check: after replicas
// truncate different prefixes, new proposals still decide consistently
// and late traffic about truncated instances cannot resurrect state.
func TestTruncatedClusterKeepsDeciding(t *testing.T) {
	c := decideN(t, 8)
	c.reps[0].TruncateBefore(8)
	c.reps[1].TruncateBefore(4)
	// Replica 2 keeps its full log.
	for i := 8; i < 16; i++ {
		c.propose(ReplicaID(i%3), fmt.Sprintf("v%03d", i))
	}
	c.run(800)
	for id, r := range c.reps {
		if got := int(r.Decided()); got != 16 {
			t.Fatalf("replica %d decided %d of 16 after truncation", id, got)
		}
		if got, want := len(r.log), int(r.Decided()-r.Base()); got != want {
			t.Fatalf("replica %d retains %d values for instances %d..%d", id, got, r.Base(), r.Decided())
		}
	}
	c.checkPrefixAgreement()
}

// belowDecided runs f on a replica that delivered instances 0..5, once
// with its whole log retained and once truncated at Decided(): a message
// about instance 2 is about a decided instance either way, and must be
// answered the same way.
func belowDecided(t *testing.T, f func(t *testing.T, r *Replica)) {
	for _, truncate := range []bool{false, true} {
		name := "retained"
		if truncate {
			name = "truncated"
		}
		t.Run(name, func(t *testing.T) {
			c := decideN(t, 6)
			r := c.reps[2]
			if truncate {
				r.TruncateBefore(6)
			}
			f(t, r)
			if r.Decided() != 6 || r.win.n != 0 {
				t.Fatalf("decided %d with state for %d instances, want 6 and none", r.Decided(), r.win.n)
			}
			if log := r.SuffixFrom(0); len(log) != int(6-r.Base()) || (!truncate && string(log[2]) != "v002") {
				t.Fatalf("retained log changed: %q", log)
			}
		})
	}
}

// TestLateDecideBelowDecidedIgnored feeds a stale Decide for a delivered
// instance directly; it must not recreate state or change the log.
func TestLateDecideBelowDecidedIgnored(t *testing.T) {
	belowDecided(t, func(t *testing.T, r *Replica) {
		base := r.Base()
		r.OnMessage(Message{Kind: MsgDecide, From: 0, To: 2, Instance: 2, Value: []byte("stale")})
		if r.Base() != base {
			t.Fatalf("late Decide moved the base to %d", r.Base())
		}
		if d := r.TakeDecisions(); len(d) != 0 {
			t.Fatalf("late Decide delivered %v", d)
		}
	})
}

// TestStaleAcceptBelowDecidedNacked: a deposed leader retransmitting an
// Accept for a delivered instance must be Nacked like any stale ballot
// — acking would hand it a bogus quorum vote and flip this replica's
// leader pointer off the current leader. A current-ballot Accept is not
// acked either: it is answered with the Decide of the chosen value
// while the log retains it, and not at all once truncated, and creates
// no state.
func TestStaleAcceptBelowDecidedNacked(t *testing.T) {
	belowDecided(t, func(t *testing.T, r *Replica) {
		leader := r.leader
		stale := Ballot{Counter: 0, Replica: 1}
		if !stale.Less(r.floor) {
			t.Fatalf("test premise broken: ballot %+v not below floor %+v", stale, r.floor)
		}
		out := r.OnMessage(Message{Kind: MsgAccept, From: 1, To: 2, Ballot: stale, Instance: 2, Value: []byte("stale")})
		if len(out) != 1 || out[0].Kind != MsgNack || out[0].Ballot != r.floor {
			t.Fatalf("stale below-Decided Accept answered %v, want a Nack with %+v", out, r.floor)
		}
		if r.leader != leader {
			t.Fatalf("stale below-Decided Accept flipped leader pointer to %d", r.leader)
		}
		cur := r.floor
		out = r.OnMessage(Message{Kind: MsgAccept, From: cur.Replica, To: 2, Ballot: cur, Instance: 2, Value: []byte("retrans")})
		if r.Base() > 2 {
			if len(out) != 0 {
				t.Fatalf("current-ballot Accept below the truncation answered %v, want nothing", out)
			}
			return
		}
		if len(out) != 1 || out[0].Kind != MsgDecide || string(out[0].Value) != "v002" || out[0].Ballot != cur {
			t.Fatalf("current-ballot below-Decided Accept answered %v, want the Decide of v002", out)
		}
	})
}

// TestAcceptBelowDecidedHonoursFoldedPromise: an instance's promise
// outlives its state. A follower that missed a Prepare accepts a higher
// ballot for one instance; once that instance is delivered, an Accept
// from the older ballot about it — or about any other delivered
// instance — is Nacked with the folded promise, as the acceptor's
// per-instance promise was, not acked against the lower floor.
func TestAcceptBelowDecidedHonoursFoldedPromise(t *testing.T) {
	r := MustNewReplica(Config{ID: 2, N: 3})
	old, newer := Ballot{Counter: 1, Replica: 0}, Ballot{Counter: 2, Replica: 1}
	r.OnMessage(Message{Kind: MsgPrepare, From: 0, To: 2, Ballot: old})
	r.OnMessage(Message{Kind: MsgAccept, From: 0, To: 2, Ballot: old, Instance: 0, Value: []byte("a")})
	r.OnMessage(Message{Kind: MsgAccept, From: 1, To: 2, Ballot: newer, Instance: 1, Value: []byte("b")})
	r.CatchUp(0, [][]byte{[]byte("a"), []byte("b")})
	if r.Decided() != 2 || r.win.n != 0 {
		t.Fatalf("decided %d with %d window instances, want 2 and none", r.Decided(), r.win.n)
	}
	for _, i := range []InstanceID{0, 1} {
		out := r.OnMessage(Message{Kind: MsgAccept, From: 0, To: 2, Ballot: old, Instance: i, Value: []byte("x")})
		if len(out) != 1 || out[0].Kind != MsgNack || out[0].Ballot != newer {
			t.Fatalf("Accept(%+v) for delivered instance %d answered %v, want a Nack with %+v", old, i, out, newer)
		}
	}
	if r.Leader() != 1 {
		t.Fatalf("leader pointer %d, want 1 (the newer ballot's)", r.Leader())
	}
}

func TestInstallSnapshotFastForwards(t *testing.T) {
	c := decideN(t, 10)
	// A fresh replica joins logically at instance 0 and is handed a
	// snapshot covering instances < 7.
	r := MustNewReplica(Config{ID: 0, N: 3})
	r.InstallSnapshot(7)
	if r.Base() != 7 || r.Decided() != 7 {
		t.Fatalf("after install: base %d decided %d, want 7/7", r.Base(), r.Decided())
	}
	if d := r.TakeDecisions(); len(d) != 0 {
		t.Fatalf("install produced %d decisions, want none", len(d))
	}
	// Stream the suffix from a live peer; delivery resumes at 7.
	r.CatchUp(7, c.reps[0].SuffixFrom(7))
	decs := r.TakeDecisions()
	if len(decs) != 3 {
		t.Fatalf("suffix catch-up delivered %d, want 3", len(decs))
	}
	for i, d := range decs {
		want := fmt.Sprintf("v%03d", 7+i)
		if d.Instance != InstanceID(7+i) || !bytes.Equal(d.Value, []byte(want)) {
			t.Fatalf("decision %d = (%d, %q), want (%d, %q)", i, d.Instance, d.Value, 7+i, want)
		}
	}
	// Installing a snapshot older than the delivered prefix only
	// truncates; it never rewinds delivery.
	r.InstallSnapshot(5)
	if r.Decided() != 10 {
		t.Fatalf("old snapshot rewound delivery to %d", r.Decided())
	}
}

// TestInstallSnapshotDropsQueuedPrefix verifies decisions already
// queued for delivery but superseded by the installed snapshot are
// discarded, and learned-but-gapped decisions beyond the boundary
// surface once the snapshot covers the gap.
func TestInstallSnapshotDropsQueuedPrefix(t *testing.T) {
	r := MustNewReplica(Config{ID: 0, N: 3})
	// Learn a prefix (queued, not yet taken) plus a gapped decision at 9.
	r.CatchUp(0, [][]byte{[]byte("q0"), []byte("q1"), []byte("q2")})
	r.CatchUp(9, [][]byte{[]byte("q9")})
	// The snapshot covers everything below 8: the queued 0..2 are
	// superseded; 9 still waits on 8.
	r.InstallSnapshot(8)
	if decs := r.TakeDecisions(); len(decs) != 0 {
		t.Fatalf("superseded decisions leaked: %v", decs)
	}
	if r.Decided() != 8 {
		t.Fatalf("decided %d, want 8", r.Decided())
	}
	r.CatchUp(8, [][]byte{[]byte("q8")})
	decs := r.TakeDecisions()
	if len(decs) != 2 || decs[0].Instance != 8 || decs[1].Instance != 9 {
		t.Fatalf("after filling the gap: decisions %v", decs)
	}
}

// referencedValues returns the data pointer of every byte slice
// reachable from r — through pointers, maps, struct fields and every
// slice's full capacity, which is what the garbage collector scans.
func referencedValues(r *Replica) map[*byte]bool {
	refs := make(map[*byte]bool)
	seen := make(map[uintptr]bool)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() && !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				walk(v.Elem())
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice:
			if v.Cap() == 0 {
				return
			}
			if v.Type().Elem().Kind() == reflect.Uint8 {
				refs[(*byte)(v.UnsafePointer())] = true
				return
			}
			full := v.Slice3(0, v.Cap(), v.Cap())
			for i := 0; i < full.Len(); i++ {
				walk(full.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(r))
	return refs
}
