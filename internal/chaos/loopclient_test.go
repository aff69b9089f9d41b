package chaos

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/sim"
)

// echoRun is a timed run whose groups 1..n reply to every request they
// receive, group g after delays[g]; every link takes 100 µs. Its whole
// duration is the measurement window.
func echoRun(n int, delays map[amcast.GroupID]sim.Time) *run {
	s := sim.New()
	r := &run{s: s, res: &ScheduleResult{}, opt: Options{Duration: 1}, hi: 1 << 62}
	r.net = sim.NewNetwork(s, func(from, to amcast.NodeID) sim.Time { return 100 })
	for g := amcast.GroupID(1); g <= amcast.GroupID(n); g++ {
		r.net.Register(amcast.GroupNode(g), sim.HandlerFunc(func(env amcast.Envelope) {
			d := amcast.Delivery{Group: g, Msg: env.Msg}
			s.Schedule(delays[g], func() { r.net.Send(amcast.GroupNode(g), env.Msg.Sender, amcast.ReplyFor(amcast.GroupNode(g), d)) })
		}))
	}
	return r
}

// every is a route to every destination.
func every(m amcast.Message) []amcast.NodeID {
	nodes := make([]amcast.NodeID, len(m.Dst))
	for i, g := range m.Dst {
		nodes[i] = amcast.GroupNode(g)
	}
	return nodes
}

// echoClient is client number idx of r, multicasting to dst forever
// after think; issues records each issue's time.
func echoClient(r *run, idx int, dst []amcast.GroupID, think sim.Time, issues *[]sim.Time) *loopClient {
	calls := client.NewCalls[openCall](idx, every)
	return r.loop(calls, func(seq uint64) (amcast.Message, bool) {
		if issues != nil {
			*issues = append(*issues, r.s.Now())
		}
		return calls.Message(seq, append([]amcast.GroupID(nil), dst...), 0, nil), true
	}, think, nil, nil)
}

func TestClosedLoop(t *testing.T) {
	r := echoRun(2, nil)
	c := echoClient(r, 0, []amcast.GroupID{1, 2}, 0, nil)
	c.issue()
	r.s.RunUntil(1000) // several request/reply round trips at 200 µs each
	if r.res.Completed < 3 || r.res.PerDest[1].Len() != r.res.Completed {
		t.Fatalf("completed %d, %d with a second reply", r.res.Completed, r.res.PerDest[1].Len())
	}
	if c.issued < uint64(r.res.Completed) {
		t.Fatalf("issued %d < completed %d", c.issued, r.res.Completed)
	}
}

func TestRepliesSortedByArrival(t *testing.T) {
	// Group 1 replies 500 µs late: its reply is the second destination's.
	r := echoRun(2, map[amcast.GroupID]sim.Time{1: 500})
	echoClient(r, 1, []amcast.GroupID{1, 2}, 0, nil).issue()
	r.s.RunUntil(800)
	first, second := r.res.PerDest[0].Percentile(50), r.res.PerDest[1].Percentile(50)
	if r.res.Completed != 1 || first != 200 || second != 700 {
		t.Fatalf("%d completions, replies after %v and %v µs, want 1 after 200 and 700", r.res.Completed, first, second)
	}
}

func TestDuplicateRepliesIgnored(t *testing.T) {
	r := echoRun(0, nil)
	// Group 1 replies twice to each request; group 2 never replies, so
	// the duplicate from group 1 must not complete the multicast.
	r.net.Register(amcast.GroupNode(1), sim.HandlerFunc(func(env amcast.Envelope) {
		reply := amcast.ReplyFor(amcast.GroupNode(1), amcast.Delivery{Group: 1, Msg: env.Msg})
		r.net.Send(amcast.GroupNode(1), env.Msg.Sender, reply)
		r.net.Send(amcast.GroupNode(1), env.Msg.Sender, reply)
	}))
	r.net.Register(amcast.GroupNode(2), sim.HandlerFunc(func(amcast.Envelope) {}))
	c := echoClient(r, 0, []amcast.GroupID{1, 2}, 0, nil)
	c.issue()
	r.s.Run()
	if r.res.Completed != 0 || c.issued != 1 {
		t.Fatalf("completed %d, issued %d: a duplicate reply completed the multicast", r.res.Completed, c.issued)
	}
}

func TestThinkTime(t *testing.T) {
	r := echoRun(1, nil)
	var issues []sim.Time
	echoClient(r, 0, []amcast.GroupID{1}, 1000, &issues).issue()
	r.s.RunUntil(2500)
	// Round trip is 200 µs; think time adds 1000 µs between completion
	// and the next issue.
	if len(issues) < 2 || issues[1]-issues[0] != 1200 {
		t.Fatalf("issues at %v, want a 1200 µs gap", issues)
	}
}

func TestStopPreventsNewIssues(t *testing.T) {
	r := echoRun(1, nil)
	c := echoClient(r, 0, []amcast.GroupID{1}, 0, nil)
	c.issue()
	r.s.RunUntil(200) // exactly one round trip, whose completion issues the next
	c.stop = true
	r.s.Run()
	if c.issued != 2 || r.res.Completed != 2 {
		t.Fatalf("issued %d, completed %d after the drain, want 2 and 2", c.issued, r.res.Completed)
	}
}

func TestMessageIDsUniqueAndOwned(t *testing.T) {
	r := echoRun(1, nil)
	var ids []amcast.MsgID
	calls := client.NewCalls[openCall](7, every)
	r.loop(calls, func(seq uint64) (amcast.Message, bool) {
		m := calls.Message(seq, []amcast.GroupID{1}, 0, nil)
		ids = append(ids, m.ID)
		return m, true
	}, 0, nil, nil).issue()
	r.s.RunUntil(1000)
	seen := make(map[amcast.MsgID]bool)
	for _, id := range ids {
		if id.Client() != 7 || seen[id] {
			t.Fatalf("message ids %v: not all unique and owned by client 7", ids)
		}
		seen[id] = true
	}
	if len(ids) < 3 {
		t.Fatalf("issued %d multicasts", len(ids))
	}
}
