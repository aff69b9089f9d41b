package core_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/core"
	"flexcast/internal/overlay"
	"flexcast/internal/prototest"
)

// The flush schedules below are checked exhaustively: every interleaving
// of their links and client injections, up to moves that commute, runs
// from a fresh Router to quiescence and must satisfy the §2.2 properties.
// They pin the argument of DESIGN.md §4 deviation 10 that a flush ack
// may leave out what lower groups created with no hold at the receiver:
// condition 2 blocks whatever the sender sends after the flush on the
// flush's open dependency.

// enumGroups is the overlay 1 → 2 → 3 → 4.
var enumGroups = []amcast.GroupID{1, 2, 3, 4}

const enumFlush = 100

// enumPrefix is drained before the search: it leaves entries created at
// groups 1 and 2.
var enumPrefix = []amcast.Message{prototest.Msg(1, 1, 2), prototest.Msg(2, 2, 3)}

// enumMove is one choice of the search: hand the head of the link
// from → to to group to, or, with from 0, inject pending multicast m at
// its entry group to. Either changes only the receiver's engine and the
// receiver's out-links, so two moves commute iff their receivers differ.
type enumMove struct {
	from, to amcast.GroupID
	m        int
}

// enumResult is what one search found.
type enumResult struct {
	execs    int // quiescent executions checked
	asleep   int // executions cut as equivalent to an explored one
	outcomes map[string]bool
	err      error // the first property violation
	schedule []enumMove
}

// digest names the set of per-group delivery outcomes.
func (r enumResult) digest() string {
	keys := make([]string, 0, len(r.outcomes))
	for k := range r.outcomes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(keys, "\n"))))[:12]
}

// enumerate searches every interleaving of msgs after enumPrefix, by
// stateless depth-first search with sleep sets, replaying each execution
// from a fresh Router. wrap, when set, stands between each engine and
// its node. The search stops at the first violation.
func enumerate(t *testing.T, msgs []amcast.Message, wrap func(e *core.Engine, ov *overlay.CDAG) amcast.Engine) enumResult {
	t.Helper()
	ov := overlay.MustCDAG(enumGroups)
	res := enumResult{outcomes: make(map[string]bool)}
	type frame struct {
		awake []enumMove // the moves explored from this state, in order
		next  int        // the one being explored
		sleep []enumMove // the moves asleep on entry
	}
	// childSleep is what sleeps after fr's current move: the moves that
	// slept or were explored before it and commute with it.
	childSleep := func(fr frame) []enumMove {
		var z []enumMove
		for _, u := range append(slices.Clone(fr.sleep), fr.awake[:fr.next]...) {
			if u.to != fr.awake[fr.next].to {
				z = append(z, u)
			}
		}
		return z
	}
	var stack []frame
	for {
		engines := make(map[amcast.GroupID]*core.Engine)
		r := prototest.NewRouter(t, enumGroups, func(g amcast.GroupID) amcast.Engine {
			engines[g] = core.MustNew(core.Config{Group: g, Overlay: ov})
			if wrap != nil {
				return wrap(engines[g], ov)
			}
			return engines[g]
		})
		for _, m := range enumPrefix {
			r.Multicast(ov.Lca(m.Dst), m)
		}
		r.Drain()
		injected := make([]bool, len(msgs))
		do := func(mv enumMove) {
			if mv.from == 0 {
				injected[mv.m] = true
				r.Multicast(mv.to, msgs[mv.m])
			} else {
				r.StepAny(mv.from, mv.to)
			}
		}
		for _, fr := range stack {
			do(fr.awake[fr.next])
		}
		for {
			var sleep []enumMove
			if n := len(stack); n > 0 {
				sleep = childSleep(stack[n-1])
			}
			var enabled, awake []enumMove
			for i, m := range msgs {
				if !injected[i] {
					enabled = append(enabled, enumMove{to: ov.Lca(m.Dst), m: i})
				}
			}
			for _, from := range enumGroups {
				for _, to := range enumGroups {
					if r.LinkDepth(from, to) > 0 {
						enabled = append(enabled, enumMove{from: from, to: to})
					}
				}
			}
			for _, mv := range enabled {
				if !slices.Contains(sleep, mv) {
					awake = append(awake, mv)
				}
			}
			if len(enabled) == 0 {
				res.execs++
				if err := checkQuiescent(r, engines, msgs); err != nil {
					res.err = err
					for _, fr := range stack {
						res.schedule = append(res.schedule, fr.awake[fr.next])
					}
					return res
				}
				var key strings.Builder
				for _, g := range enumGroups {
					fmt.Fprintf(&key, "%d:%v ", g, r.Seq(g))
				}
				res.outcomes[key.String()] = true
				break
			}
			if len(awake) == 0 {
				res.asleep++
				break
			}
			stack = append(stack, frame{awake: awake, sleep: sleep})
			do(awake[0])
		}
		for len(stack) > 0 && stack[len(stack)-1].next+1 == len(stack[len(stack)-1].awake) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return res
		}
		stack[len(stack)-1].next++
	}
}

// checkQuiescent checks one quiescent execution: the §2.2 properties
// and minimality, an acyclic history at every group, and every group's
// delivery of each message addressed to it, the flush and the prefix
// included.
func checkQuiescent(r *prototest.Router, engines map[amcast.GroupID]*core.Engine, msgs []amcast.Message) error {
	if err := r.Recorder.CheckAll(true); err != nil {
		return err
	}
	for _, g := range enumGroups {
		if err := engines[g].CheckHistoryAcyclic(); err != nil {
			return fmt.Errorf("group %d: %w", g, err)
		}
		for _, m := range append(slices.Clone(enumPrefix), msgs...) {
			if m.HasDst(g) && !slices.Contains(r.Seq(g), m.ID) {
				return fmt.Errorf("group %d delivered %v, not %s", g, r.Seq(g), m.ID)
			}
		}
	}
	return nil
}

// enumConfigs are the searched schedules: one flush to every group and
// one to four global messages, the first the TestFlushAckBeforeLowerAcks
// shape. Each large one takes seconds (the last about 16 s on 2 vCPU) and
// is skipped under -race; F+34+24+14, 529 200 executions in 90 s, is
// past the budget.
var enumConfigs = []struct {
	name  string
	msgs  []amcast.Message
	large bool
}{
	{"F+34", enumMsgs(3), false},
	{"F+34+24", enumMsgs(3, 4), false},
	{"F+24+23", enumMsgs(4, 6), false},
	{"F+34+14", enumMsgs(3, 5), true},
	{"F+34+24+23", enumMsgs(3, 4, 6), true},
	{"F+34+24+23+34", enumMsgs(3, 4, 6, 7), true},
}

// enumMsgs is the flush followed by the global messages of the given
// ids: 3 and 7 to {3,4}, 4 to {2,4}, 5 to {1,4}, 6 to {2,3}.
func enumMsgs(ids ...uint64) []amcast.Message {
	dst := map[uint64][]amcast.GroupID{3: {3, 4}, 4: {2, 4}, 5: {1, 4}, 6: {2, 3}, 7: {3, 4}}
	msgs := []amcast.Message{flushMsg(enumFlush, enumGroups)}
	for _, id := range ids {
		msgs = append(msgs, prototest.Msg(id, dst[id]...))
	}
	return msgs
}

// TestHoldFreeFlushSchedules: no interleaving of the bounded flush
// schedules violates a property.
func TestHoldFreeFlushSchedules(t *testing.T) {
	for _, c := range enumConfigs {
		t.Run(c.name, func(t *testing.T) {
			if c.large && prototest.RaceEnabled() {
				t.Skip("exhaustive search of a large config is run without -race")
			}
			res := enumerate(t, c.msgs, nil)
			if res.err != nil {
				t.Fatalf("after %d executions, schedule %v: %v", res.execs, res.schedule, res.err)
			}
			t.Logf("%d executions checked, %d cut asleep, %d distinct delivery outcomes (digest %s)",
				res.execs, res.asleep, len(res.outcomes), res.digest())
		})
	}
}

// stripOwn is the unsafe form of the flush rule: each flush ack leaves
// out, of what precedes the flush, the entries its sender created as well
// as the ones it merged: the nodes of the messages it is the lca of, and
// the edges between two messages it delivered.
type stripOwn struct {
	*core.Engine
	ov        *overlay.CDAG
	delivered map[amcast.MsgID]bool
}

func (s *stripOwn) BatchStep(envs []amcast.Envelope) []amcast.Output {
	return s.strip(s.Engine.BatchStep(envs))
}

func (s *stripOwn) OnEnvelope(env amcast.Envelope) []amcast.Output {
	return s.strip(s.Engine.OnEnvelope(env))
}

func (s *stripOwn) TakeDeliveries() []amcast.Delivery {
	dels := s.Engine.TakeDeliveries()
	for _, d := range dels {
		s.delivered[d.Msg.ID] = true
	}
	return dels
}

func (s *stripOwn) strip(outs []amcast.Output) []amcast.Output {
	for i, o := range outs {
		d, f := o.Env.Hist, o.Env.Msg.ID
		if o.Env.Kind != amcast.KindAck || o.Env.Msg.Flags&amcast.FlagFlush == 0 || d == nil {
			continue
		}
		// Destinations may share one delta: strip a copy.
		kept := &amcast.HistDelta{}
		for _, hn := range d.Nodes {
			if hn.ID == f || s.ov.Lca(hn.Dst) != s.Group() {
				kept.Nodes = append(kept.Nodes, hn)
			}
		}
		for _, e := range d.Edges {
			if e.From == f || e.To == f || !s.delivered[e.From] || !s.delivered[e.To] {
				kept.Edges = append(kept.Edges, e)
			}
		}
		outs[i].Env.Hist = kept
	}
	return outs
}

// TestEnumeratorFindsStrippedAck: the same search, over the configs in
// order, finds the violation that flush acks stripped of their senders'
// own entries cause, so a clean search above means something.
func TestEnumeratorFindsStrippedAck(t *testing.T) {
	for _, c := range enumConfigs {
		if c.large && prototest.RaceEnabled() {
			t.Skip("no violation in the configs searched under -race")
		}
		res := enumerate(t, c.msgs, func(e *core.Engine, ov *overlay.CDAG) amcast.Engine {
			return &stripOwn{Engine: e, ov: ov, delivered: make(map[amcast.MsgID]bool)}
		})
		if res.err != nil {
			t.Logf("%s: violation after %d executions, schedule %v: %v", c.name, res.execs, res.schedule, res.err)
			return
		}
		t.Logf("%s: %d executions, no violation", c.name, res.execs)
	}
	t.Fatal("no config finds the violation of stripped flush acks")
}
