package paxos

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// diff runs each replica of a group twice — the Replica under test and
// the map-based replica it replaced (model_test.go) — in lockstep over one
// network that carries the Replica's messages. Every input reaches both;
// every answer, decision stream, Decided(), Base() and SuffixFrom must be
// identical, except for the named classes of answer below (DESIGN.md
// §1i), where the Replica refuses what the model accepted or names a
// higher promise in its refusal. The model is then left in the state a
// refusal leaves it in — unchanged — so the pair stays in lockstep.
type diff struct {
	t     testing.TB
	impl  []*Replica
	model []*modelReplica
	net   []Message
	nvals int
	// named counts the named differences seen, by class; ops counts the
	// operations run, by kind.
	named map[string]int
	ops   map[string]int
	trail [][]any // the last operations, for failure reports
}

// Named classes of difference, both answers to an Accept for an
// instance below Decided(): the Replica holds one promise for all of
// them (floor and fold), the model one per retained instance.
const (
	classNackBallot = "both Nack, the Replica naming the folded promise"
	classRefused    = "the model acks a ballot below the folded promise, the Replica Nacks"
)

func newDiff(t testing.TB, n int) *diff {
	d := &diff{t: t, named: make(map[string]int), ops: make(map[string]int)}
	for i := 0; i < n; i++ {
		cfg := Config{ID: ReplicaID(i), N: n}
		m, err := newModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.impl = append(d.impl, MustNewReplica(cfg))
		d.model = append(d.model, m)
	}
	return d
}

func (d *diff) fatalf(format string, args ...any) {
	d.t.Helper()
	ops := make([]string, len(d.trail))
	for i, op := range d.trail {
		ops[i] = fmt.Sprint(op...)
	}
	d.t.Fatalf("%s\nlast operations:\n  %s", fmt.Sprintf(format, args...), strings.Join(ops, "\n  "))
}

func (d *diff) note(op string, args ...any) {
	d.ops[op]++
	d.trail = append(d.trail, append([]any{op, " "}, args...))
	if len(d.trail) > 40 {
		d.trail = d.trail[1:]
	}
}

// run interprets prog two bytes at a time: an operation and its
// argument.
func (d *diff) run(prog []byte) {
	for len(prog) >= 2 {
		d.step(prog[0], int(prog[1]))
		prog = prog[2:]
	}
	for p := range d.impl {
		d.check(p, true)
	}
}

func (d *diff) step(op byte, arg int) {
	n := len(d.impl)
	p := arg % n
	switch op % 16 {
	case 0, 1, 2, 3, 4, 5: // FIFO delivery
		if len(d.net) > 0 {
			d.deliverAt(0, false)
		}
	case 6, 7: // reordering
		if len(d.net) > 0 {
			d.deliverAt(arg%len(d.net), false)
		}
	case 8: // duplication
		if len(d.net) > 0 {
			d.deliverAt(arg%len(d.net), true)
		}
	case 9: // loss
		if len(d.net) > 0 {
			i := arg % len(d.net)
			d.note("drop", d.net[i].Kind, d.net[i].Instance)
			d.net = append(d.net[:i], d.net[i+1:]...)
		}
	case 10:
		if arg&1 == 0 {
			for q := range d.impl {
				d.tick(q)
			}
		} else {
			d.tick(p)
		}
	case 11:
		d.nvals++
		v := []byte(fmt.Sprintf("v%d", d.nvals))
		d.note("propose", p, string(v))
		d.send(d.same(d.impl[p].Propose(v), d.model[p].Propose(v), "Propose"))
		d.check(p, false)
	case 12:
		if !d.impl[p].Crashed() && d.live() > n/2+1 {
			d.note("crash", p)
			d.impl[p].Crash()
			d.model[p].Crash()
		}
	case 13:
		d.recover(p)
	case 14:
		a := d.impl[p]
		at := a.Base() + InstanceID(arg>>3)%(a.Decided()-a.Base()+2) // one past Decided() clamps
		d.note("truncate", p, at)
		a.TruncateBefore(at)
		d.model[p].TruncateBefore(at)
		d.check(p, true)
	case 15:
		if !d.impl[p].Crashed() {
			d.note("campaign", p)
			d.send(d.same(d.impl[p].campaign(), d.model[p].campaign(), "campaign"))
			d.check(p, false)
		}
	}
}

func (d *diff) live() int {
	k := 0
	for _, r := range d.impl {
		if !r.Crashed() {
			k++
		}
	}
	return k
}

func (d *diff) tick(p int) {
	d.note("tick", p)
	d.send(d.same(d.impl[p].Tick(), d.model[p].Tick(), "Tick"))
	d.check(p, false)
}

func (d *diff) send(ms []Message) { d.net = append(d.net, ms...) }

// deliverAt hands the i-th in-flight message to its destination pair,
// leaving a copy in flight when dup is set.
func (d *diff) deliverAt(i int, dup bool) {
	m := d.net[i]
	if dup {
		d.note("dup", m.Kind, m.From, "->", m.To, m.Instance, m.Ballot)
	} else {
		d.note("deliver", m.Kind, m.From, "->", m.To, m.Instance, m.Ballot)
		d.net = append(d.net[:i], d.net[i+1:]...)
	}
	a, b := d.impl[m.To], d.model[m.To]
	past := m.Kind == MsgAccept && m.Instance < a.Decided() && !a.Crashed()
	got := a.OnMessage(m)
	if past {
		d.ops["accept below Decided"]++
	}
	if past && len(got) == 1 && got[0].Kind == MsgNack {
		d.ops["accept below Decided, Nacked"]++
		if want := b.clone().OnMessage(m); !sameMsgs(got, want) {
			d.classify(m, got, want)
			d.send(got)
			d.check(int(m.To), false)
			return
		}
	}
	d.send(d.same(got, b.OnMessage(m), "OnMessage"))
	d.check(int(m.To), false)
}

// classify names a refusal whose answer differs from the model's, or
// fails the test if the difference is not one of the named classes.
func (d *diff) classify(m Message, got, want []Message) {
	d.t.Helper()
	nack := got[0].Ballot
	switch {
	case !m.Ballot.Less(nack) || len(want) != 1:
	case want[0].Kind == MsgNack && want[0].Ballot.Less(nack):
		d.named[classNackBallot]++
		return
	case reflect.DeepEqual(want[0], Message{Kind: MsgAccepted, From: m.To, To: m.From, Ballot: m.Ballot, Instance: m.Instance}):
		d.named[classRefused]++
		return
	}
	d.fatalf("%v answered %v, model %v: not a named difference", m, got, want)
}

// same fails the test unless both implementations emitted the same
// messages, and returns them.
func (d *diff) same(got, want []Message, what string) []Message {
	d.t.Helper()
	if !sameMsgs(got, want) {
		d.fatalf("%s: Replica emitted %v, model %v", what, got, want)
	}
	return got
}

func sameMsgs(a, b []Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// recover restarts a crashed pair the way internal/smr does: the donor
// is the most advanced live replica; a donor that truncated past this
// replica's log ships its snapshot boundary (InstallSnapshot), then the
// suffix is streamed (CatchUp).
func (d *diff) recover(p int) {
	a, b := d.impl[p], d.model[p]
	if !a.Crashed() {
		return
	}
	d.note("recover", p)
	a.Recover()
	b.Recover()
	d.check(p, true)
	donor := -1
	for q, r := range d.impl {
		if q != p && !r.Crashed() && (donor < 0 || r.Decided() > d.impl[donor].Decided()) {
			donor = q
		}
	}
	if donor < 0 {
		return
	}
	dr := d.impl[donor]
	if dr.Base() > a.Decided() {
		d.note("install", p, dr.Base())
		a.InstallSnapshot(dr.Base())
		b.InstallSnapshot(dr.Base())
		d.check(p, true)
	}
	if from := a.Decided(); dr.Decided() > from {
		vals := dr.SuffixFrom(from)
		if want := d.model[donor].SuffixFrom(from); !reflect.DeepEqual(vals, want) {
			d.fatalf("donor %d SuffixFrom(%d): Replica %q, model %q", donor, from, vals, want)
		}
		d.note("catchup", p, from, len(vals))
		a.CatchUp(from, vals)
		b.CatchUp(from, vals)
		d.check(p, true)
	}
}

// check compares what the pair at p exposes; with logs set it also
// compares the whole retained log and a suffix of it.
func (d *diff) check(p int, logs bool) {
	d.t.Helper()
	a, b := d.impl[p], d.model[p]
	if a.Decided() != b.Decided() || a.Base() != b.Base() {
		d.fatalf("replica %d: Decided/Base %d/%d, model %d/%d", p, a.Decided(), a.Base(), b.Decided(), b.Base())
	}
	if a.IsLeader() != b.IsLeader() || a.Leader() != b.Leader() || a.Crashed() != b.Crashed() {
		d.fatalf("replica %d: leader %d/%v crashed %v, model %d/%v crashed %v", p,
			a.Leader(), a.IsLeader(), a.Crashed(), b.Leader(), b.IsLeader(), b.Crashed())
	}
	if got, want := a.TakeDecisions(), b.TakeDecisions(); !reflect.DeepEqual(got, want) {
		d.fatalf("replica %d: decided %v, model %v", p, got, want)
	}
	if logs {
		mid := a.Base() + (a.Decided()-a.Base())/2
		for _, start := range []InstanceID{0, mid} {
			if got, want := a.SuffixFrom(start), b.SuffixFrom(start); !reflect.DeepEqual(got, want) {
				d.fatalf("replica %d: SuffixFrom(%d) %q, model %q", p, start, got, want)
			}
		}
	}
}

// randomProgram draws a schedule: mostly in-order deliveries and ticks,
// with reordering, duplication, loss, proposals at every replica, crash
// and recovery (with snapshot install and catch-up), truncation and
// competing campaigns mixed in.
func randomProgram(rng *rand.Rand, steps int) []byte {
	weights := []struct {
		op byte
		w  int
	}{{0, 66}, {6, 8}, {8, 3}, {9, 2}, {10, 7}, {11, 5}, {12, 1}, {13, 3}, {14, 4}, {15, 1}}
	total := 0
	for _, w := range weights {
		total += w.w
	}
	prog := make([]byte, 0, 2*steps)
	for i := 0; i < steps; i++ {
		x := rng.Intn(total)
		op := weights[0].op
		for _, w := range weights {
			if x < w.w {
				op = w.op
				break
			}
			x -= w.w
		}
		prog = append(prog, op, byte(rng.Intn(256)))
	}
	return prog
}

func TestReplicaMatchesModel(t *testing.T) {
	schedules := 300
	if testing.Short() {
		schedules = 60
	}
	named := make(map[string]int)
	ops := make(map[string]int)
	decided := 0
	for _, n := range []int{3, 5} {
		for seed := 0; seed < schedules; seed++ {
			d := newDiff(t, n)
			d.run(randomProgram(rand.New(rand.NewSource(int64(seed))), 1500))
			for k, v := range d.named {
				named[k] += v
			}
			for k, v := range d.ops {
				ops[k] += v
			}
			for _, r := range d.impl {
				decided += int(r.Decided())
			}
		}
	}
	for _, op := range []string{"deliver", "dup", "drop", "propose", "crash", "recover", "install", "catchup", "truncate", "campaign"} {
		if ops[op] == 0 {
			t.Errorf("no schedule ran a %s", op)
		}
	}
	if decided == 0 {
		t.Error("no schedule decided anything")
	}
	classes := make([]string, 0, len(named))
	for c := range named {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	t.Logf("%d decisions; operations %v", decided, ops)
	for _, c := range classes {
		t.Logf("named difference %q: %d", c, named[c])
	}
}

// TestNamedDifferences plays both named classes on purpose: a follower
// that missed the Prepare for ballot newer accepts it for instance 1,
// delivers instances 0 and 1, and is then asked about instance 0 by the
// deposed ballot old and by one below its floor.
func TestNamedDifferences(t *testing.T) {
	d := newDiff(t, 3)
	old, newer := Ballot{Counter: 1, Replica: 0}, Ballot{Counter: 2, Replica: 1}
	play := func(m Message) {
		d.net = append(d.net, m)
		d.deliverAt(len(d.net)-1, false)
	}
	play(Message{Kind: MsgPrepare, From: 0, To: 2, Ballot: old})
	play(Message{Kind: MsgAccept, From: 0, To: 2, Ballot: old, Instance: 0, Value: []byte("a")})
	play(Message{Kind: MsgAccept, From: 1, To: 2, Ballot: newer, Instance: 1, Value: []byte("b")})
	vals := [][]byte{[]byte("a"), []byte("b")}
	d.impl[2].CatchUp(0, vals)
	d.model[2].CatchUp(0, vals)
	d.check(2, true)
	if d.impl[2].Decided() != 2 {
		t.Fatalf("decided %d, want 2", d.impl[2].Decided())
	}
	play(Message{Kind: MsgAccept, From: 0, To: 2, Ballot: old, Instance: 0, Value: []byte("x")})
	play(Message{Kind: MsgAccept, From: 0, To: 2, Ballot: Ballot{}, Instance: 0, Value: []byte("x")})
	play(Message{Kind: MsgAccept, From: 0, To: 2, Ballot: old, Instance: 1, Value: []byte("x")})
	if d.named[classRefused] != 1 || d.named[classNackBallot] != 1 {
		t.Fatalf("named differences %v, want one of each", d.named)
	}
}

func FuzzReplicaOps(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(uint8(seed), randomProgram(rand.New(rand.NewSource(seed)), 300))
	}
	f.Fuzz(func(t *testing.T, five uint8, prog []byte) {
		n := 3
		if five&1 == 1 {
			n = 5
		}
		newDiff(t, n).run(prog)
	})
}
