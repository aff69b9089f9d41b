package client

import (
	"math/rand"
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/prototest"
)

// model is the reference the table is checked against: a map of open
// calls, each a set of outstanding groups plus the verdicts in arrival
// order, from which the fold is derived afresh at every comparison.
type model struct {
	open   map[amcast.MsgID]*modelCall
	prefix map[amcast.GroupID]uint64
}

type modelCall struct {
	data     int
	waiting  map[amcast.GroupID]bool
	verdicts []modelVerdict
}

type modelVerdict struct {
	g      amcast.GroupID
	result uint8
}

func (m *model) issue(msg amcast.Message, data int) {
	c := &modelCall{data: data, waiting: make(map[amcast.GroupID]bool)}
	for _, g := range msg.Dst {
		c.waiting[g] = true
	}
	m.open[msg.ID] = c
}

func (m *model) reply(env amcast.Envelope) (*modelCall, Progress) {
	if env.Kind != amcast.KindReply {
		return nil, NotReply
	}
	g := env.From.Group()
	if env.Msg.Flags&amcast.FlagRead == 0 {
		m.prefix[g] = max(m.prefix[g], env.TS+1)
	}
	m.prefix[g] = max(m.prefix[g], env.Watermark)
	c := m.open[env.Msg.ID]
	if c == nil || !c.waiting[g] {
		return nil, Stale
	}
	delete(c.waiting, g)
	c.verdicts = append(c.verdicts, modelVerdict{g, env.Result})
	if len(c.waiting) > 0 {
		return c, Advanced
	}
	delete(m.open, env.Msg.ID)
	return c, Completed
}

// fold derives the verdict fold from the arrival-ordered verdict list.
func (c *modelCall) fold() (result uint8, diverged bool, unexecuted amcast.GroupID) {
	for _, v := range c.verdicts {
		switch {
		case v.result == amcast.ResultNone:
			if unexecuted == amcast.NoGroup {
				unexecuted = v.g
			}
		case result == amcast.ResultNone:
			result = v.result
		case v.result != result:
			diverged = true
		}
	}
	return
}

// runOps plays one byte-coded stream of issues, abandons and inbound
// envelopes — replies from destinations, from non-destinations, repeated,
// for unknown, foreign, abandoned and completed ids, and non-reply kinds —
// against the table and the model, comparing them after every step. It
// returns the completions in order.
func runOps(t testing.TB, data []byte) []amcast.MsgID {
	const groups = 6
	calls := NewCalls[int](3, nil)
	ref := &model{open: make(map[amcast.MsgID]*modelCall), prefix: make(map[amcast.GroupID]uint64)}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var completed []amcast.MsgID
	for step := 0; len(data) > 0; step++ {
		op, seq := next(), uint64(1+next()%8)
		switch op % 16 {
		case 0, 1, 2:
			var dst []amcast.GroupID
			for mask, g := next()&next()|1<<(op%groups), 0; g < groups; g++ {
				if mask>>g&1 != 0 {
					dst = append(dst, amcast.GroupID(groups-g), amcast.GroupID(groups-g)) // unsorted, duplicated
				}
			}
			m := calls.Message(seq, dst, 0, nil)
			if m.ID != amcast.NewMsgID(3, seq) || m.Sender != amcast.ClientNode(3) || !reflect.DeepEqual(m.Dst, amcast.NormalizeDst(append([]amcast.GroupID(nil), dst...))) {
				t.Fatalf("step %d: Message(%d, %v) = %+v", step, seq, dst, m)
			}
			if calls.Open(m.ID) != (ref.open[m.ID] != nil) {
				t.Fatalf("step %d: Open(%s) = %v, model disagrees", step, m.ID, calls.Open(m.ID))
			}
			if calls.Open(m.ID) {
				continue // issuing an open id is a caller bug
			}
			calls.Issue(m, step)
			ref.issue(m, step)
		case 3:
			id := amcast.NewMsgID(3, seq)
			if got := calls.Abandon(id); (got != nil) != (ref.open[id] != nil) || got != nil && got.Data != ref.open[id].data {
				t.Fatalf("step %d: Abandon(%s) = %+v, model has %+v", step, id, got, ref.open[id])
			}
			delete(ref.open, id)
		default:
			bits := next()
			env := amcast.Envelope{
				Kind:      amcast.KindReply,
				From:      amcast.GroupNode(amcast.GroupID(1 + next()%(groups+1))), // groups+1 is nobody's destination
				Msg:       amcast.Message{ID: amcast.NewMsgID(3+bits>>7, seq)},     // sometimes another client's id
				Result:    uint8(bits & 3),
				TS:        uint64(next()),
				Watermark: uint64(next()),
			}
			if op%16 == 15 {
				env.Kind = amcast.KindAck
			}
			if bits&4 != 0 {
				env.Msg.Flags = amcast.FlagRead
			}
			got, progress := calls.Reply(env)
			want, wantProgress := ref.reply(env)
			if progress != wantProgress || (got != nil) != (want != nil) {
				t.Fatalf("step %d: Reply(%+v) = %v, %d; model %v, %d", step, env, got, progress, want, wantProgress)
			}
			if got != nil {
				result, diverged, unexecuted := want.fold()
				if got.Msg.ID != env.Msg.ID || got.Data != want.data || got.Result != result || got.Diverged != diverged || got.Unexecuted != unexecuted {
					t.Fatalf("step %d: call %+v, model data %d fold (%d, %v, %d)", step, got, want.data, result, diverged, unexecuted)
				}
			}
			if progress == Completed {
				completed = append(completed, env.Msg.ID)
			}
		}
		if calls.Len() != len(ref.open) {
			t.Fatalf("step %d: %d open, model %d", step, calls.Len(), len(ref.open))
		}
		for g := amcast.GroupID(1); g <= groups+1; g++ {
			if calls.Prefix.Prefix(g) != ref.prefix[g] {
				t.Fatalf("step %d: observed prefix %v, model %v", step, calls.Prefix, ref.prefix)
			}
		}
	}
	return completed
}

func randomOps(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	rng.Read(data)
	return data
}

func TestCallsMatchModel(t *testing.T) {
	completions := 0
	for seed := int64(1); seed <= 200; seed++ {
		completions += len(runOps(t, randomOps(rand.New(rand.NewSource(seed)), 4096)))
	}
	if completions < 2000 {
		t.Fatalf("%d completions over 200 streams: the streams do not exercise the table", completions)
	}
}

func FuzzCallsReply(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomOps(rand.New(rand.NewSource(seed)), 512))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}

// TestCallsWideDestinationSet covers destination sets past one mask word.
func TestCallsWideDestinationSet(t *testing.T) {
	const n = 130
	dst := make([]amcast.GroupID, n)
	for i := range dst {
		dst[i] = amcast.GroupID(i + 1)
	}
	calls := NewCalls[struct{}](0, nil)
	m := calls.Message(1, dst, 0, nil)
	calls.Issue(m, struct{}{})
	for round := 0; round < 2; round++ {
		for i, g := range dst {
			_, progress := calls.Reply(amcast.Envelope{Kind: amcast.KindReply, From: amcast.GroupNode(g), Msg: m.Header()})
			want := Advanced
			switch {
			case round == 1:
				want = Stale
			case i == n-1:
				want = Completed
			}
			if progress != want {
				t.Fatalf("round %d, group %d: progress %d, want %d", round, g, progress, want)
			}
		}
	}
}

// TestAllocBudgetCall pins what a call costs the hot path: its table
// entry at Issue, nothing at Reply (destinations are a position mask
// over Msg.Dst, not a per-call map).
func TestAllocBudgetCall(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	calls := NewCalls[[4]uint64](0, nil)
	m := calls.Message(1, []amcast.GroupID{1, 2, 3}, 0, nil)
	replies := make([]amcast.Envelope, len(m.Dst))
	for i, g := range m.Dst {
		replies[i] = amcast.ReplyFor(amcast.GroupNode(g), amcast.Delivery{Group: g, Seq: 7, Msg: m, Result: amcast.ResultCommitted})
	}
	calls.Issue(m, [4]uint64{})
	for _, env := range replies { // the map's and the tracker's first inserts allocate
		calls.Reply(env)
	}
	perCall := testing.AllocsPerRun(100, func() {
		calls.Issue(m, [4]uint64{})
		for _, env := range replies {
			calls.Reply(env)
			calls.Reply(env) // a duplicate
		}
	})
	if perCall != 1 || calls.Len() != 0 {
		t.Fatalf("a call allocates %v from Issue to completion, want 1 (its table entry); %d left open", perCall, calls.Len())
	}
}
