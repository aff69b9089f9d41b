package client

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/sim"
)

// echoGroup replies to every request immediately, simulating an
// infinitely fast single-group protocol.
type echoGroup struct {
	g     amcast.GroupID
	net   *sim.Network
	delay sim.Time
	s     *sim.Simulator
}

func (e *echoGroup) HandleEnvelope(env amcast.Envelope) {
	if env.Kind != amcast.KindRequest {
		return
	}
	reply := amcast.Envelope{Kind: amcast.KindReply, From: amcast.GroupNode(e.g), Msg: env.Msg.Header()}
	to := env.Msg.Sender
	if e.delay > 0 {
		e.s.Schedule(e.delay, func() { e.net.Send(amcast.GroupNode(e.g), to, reply) })
	} else {
		e.net.Send(amcast.GroupNode(e.g), to, reply)
	}
}

func mustNew(t *testing.T, cfg Config, s *sim.Simulator, net *sim.Network) *Client {
	t.Helper()
	c, err := New(cfg, s, net)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fixedLatency(l sim.Time) sim.LatencyFunc {
	return func(from, to amcast.NodeID) sim.Time { return l }
}

func deploy(t *testing.T, nGroups int, delays map[amcast.GroupID]sim.Time) (*sim.Simulator, *sim.Network) {
	t.Helper()
	s := sim.New()
	net := sim.NewNetwork(s, fixedLatency(100))
	for i := 1; i <= nGroups; i++ {
		g := amcast.GroupID(i)
		net.Register(amcast.GroupNode(g), &echoGroup{g: g, net: net, delay: delays[g], s: s})
	}
	return s, net
}

func allDst(dst ...amcast.GroupID) RouteFunc {
	return func(m amcast.Message) []amcast.NodeID {
		nodes := make([]amcast.NodeID, len(m.Dst))
		for i, g := range m.Dst {
			nodes[i] = amcast.GroupNode(g)
		}
		return nodes
	}
}

func TestClosedLoop(t *testing.T) {
	s, net := deploy(t, 2, nil)
	var completions []Completion
	c := mustNew(t, Config{
		Index:  0,
		Route:  allDst(),
		Source: TxSourceFunc(func() Tx { return Tx{Dst: []amcast.GroupID{1, 2}} }),
		OnComplete: func(cp Completion) {
			completions = append(completions, cp)
			if len(completions) == 3 {
				// Stop after three to keep the run finite.
			}
		},
	}, s, net)
	c.Start(0)
	s.RunUntil(1000) // several request/reply round trips at 200µs each
	c.Stop()
	s.Run()
	if len(completions) < 3 {
		t.Fatalf("completed %d transactions, want >= 3", len(completions))
	}
	if c.Issued() < c.Completed() {
		t.Fatalf("issued %d < completed %d", c.Issued(), c.Completed())
	}
	for _, cp := range completions {
		if len(cp.Replies) != 2 {
			t.Fatalf("completion with %d replies", len(cp.Replies))
		}
	}
}

func TestRepliesSortedByArrival(t *testing.T) {
	// Group 2 replies 500µs late: it must appear as the second
	// destination.
	s, net := deploy(t, 2, map[amcast.GroupID]sim.Time{2: 500})
	var got Completion
	c := mustNew(t, Config{
		Index:      1,
		Route:      allDst(),
		Source:     TxSourceFunc(func() Tx { return Tx{Dst: []amcast.GroupID{1, 2}} }),
		OnComplete: func(cp Completion) { got = cp },
	}, s, net)
	c.Start(0)
	s.RunUntil(250)
	c.Stop()
	s.Run()
	if len(got.Replies) != 2 {
		t.Fatalf("replies = %v", got.Replies)
	}
	if got.Replies[0].Group != 1 || got.Replies[1].Group != 2 {
		t.Fatalf("reply order = %v, want group 1 then 2", got.Replies)
	}
	if got.Replies[0].At >= got.Replies[1].At {
		t.Fatal("reply times not increasing")
	}
}

func TestDuplicateRepliesIgnored(t *testing.T) {
	s := sim.New()
	net := sim.NewNetwork(s, fixedLatency(10))
	// A group that replies twice to each request.
	net.Register(amcast.GroupNode(1), sim.HandlerFunc(func(env amcast.Envelope) {
		if env.Kind != amcast.KindRequest {
			return
		}
		reply := amcast.Envelope{Kind: amcast.KindReply, From: amcast.GroupNode(1), Msg: env.Msg.Header()}
		net.Send(amcast.GroupNode(1), env.Msg.Sender, reply)
		net.Send(amcast.GroupNode(1), env.Msg.Sender, reply)
	}))
	completed := 0
	c := mustNew(t, Config{
		Index:      0,
		Route:      allDst(),
		Source:     TxSourceFunc(func() Tx { return Tx{Dst: []amcast.GroupID{1, 2}} }),
		OnComplete: func(cp Completion) { completed++ },
	}, s, net)
	// Group 2 never replies: the duplicate from group 1 must not complete
	// the transaction.
	net.Register(amcast.GroupNode(2), sim.HandlerFunc(func(env amcast.Envelope) {}))
	c.Start(0)
	s.Run()
	if completed != 0 {
		t.Fatal("duplicate reply completed the transaction")
	}
}

func TestThinkTime(t *testing.T) {
	s, net := deploy(t, 1, nil)
	var issues []sim.Time
	c := mustNew(t, Config{
		Index: 0,
		Route: allDst(),
		Source: TxSourceFunc(func() Tx {
			issues = append(issues, s.Now())
			return Tx{Dst: []amcast.GroupID{1}}
		}),
		ThinkTime: 1000,
	}, s, net)
	c.Start(0)
	s.RunUntil(2500)
	c.Stop()
	s.Run()
	if len(issues) < 2 {
		t.Fatalf("issues = %v", issues)
	}
	// Round trip is 200µs; think time adds 1000µs between completion and
	// the next issue.
	if gap := issues[1] - issues[0]; gap != 1200 {
		t.Fatalf("issue gap = %d, want 1200", gap)
	}
}

func TestStopPreventsNewIssues(t *testing.T) {
	s, net := deploy(t, 1, nil)
	c := mustNew(t, Config{
		Index:  0,
		Route:  allDst(),
		Source: TxSourceFunc(func() Tx { return Tx{Dst: []amcast.GroupID{1}} }),
	}, s, net)
	c.Start(0)
	s.RunUntil(200) // exactly one round trip
	c.Stop()
	s.Run()
	issued := c.Issued()
	if issued == 0 {
		t.Fatal("nothing issued")
	}
	if c.Completed() != issued {
		t.Fatalf("issued %d, completed %d after drain", issued, c.Completed())
	}
}

func TestMessageIDsUniqueAndOwned(t *testing.T) {
	s, net := deploy(t, 1, nil)
	var ms []amcast.Message
	c := mustNew(t, Config{
		Index:      7,
		Route:      allDst(),
		Source:     TxSourceFunc(func() Tx { return Tx{Dst: []amcast.GroupID{1}} }),
		OnComplete: func(cp Completion) { ms = append(ms, cp.Msg) },
	}, s, net)
	c.Start(0)
	s.RunUntil(1000)
	c.Stop()
	s.Run()
	seen := make(map[amcast.MsgID]bool)
	for _, m := range ms {
		if m.ID.Client() != 7 {
			t.Fatalf("message id %s not owned by client 7", m.ID)
		}
		if seen[m.ID] {
			t.Fatalf("duplicate id %s", m.ID)
		}
		seen[m.ID] = true
	}
}

func TestNewValidation(t *testing.T) {
	s := sim.New()
	net := sim.NewNetwork(s, fixedLatency(1))
	if _, err := New(Config{Index: 0}, s, net); err == nil {
		t.Fatal("missing route/source accepted")
	}
}
