package sim

import (
	"testing"

	"flexcast/amcast"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %d, want 30", s.Now())
	}
	if s.Steps() != 3 {
		t.Fatalf("Steps = %d, want 3", s.Steps())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(10, func() {
		s.Schedule(-5, func() { fired = true })
	})
	s.Run()
	if !fired || s.Now() != 10 {
		t.Fatalf("fired=%v now=%d", fired, s.Now())
	}
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	s := New()
	count := 0
	s.Schedule(10, func() { count++ })
	s.Schedule(100, func() { count++ })
	s.RunUntil(50)
	if count != 1 || s.Now() != 50 || s.Pending() != 1 {
		t.Fatalf("count=%d now=%d pending=%d", count, s.Now(), s.Pending())
	}
	s.RunFor(50)
	if count != 2 || s.Now() != 100 {
		t.Fatalf("after RunFor: count=%d now=%d", count, s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			s.Schedule(1, rec)
		}
	}
	s.Schedule(0, rec)
	s.Run()
	if depth != 100 || s.Now() != 99 {
		t.Fatalf("depth=%d now=%d", depth, s.Now())
	}
}

// --- network tests ---

type collector struct {
	at   []Time
	envs []amcast.Envelope
	s    *Simulator
}

func (c *collector) HandleEnvelope(env amcast.Envelope) {
	c.at = append(c.at, c.s.Now())
	c.envs = append(c.envs, env)
}

func env(kind amcast.Kind, id uint64) amcast.Envelope {
	return amcast.Envelope{Kind: kind, Msg: amcast.Message{ID: amcast.MsgID(id), Dst: []amcast.GroupID{2}}}
}

func TestNetworkLatency(t *testing.T) {
	s := New()
	n := NewNetwork(s, func(from, to amcast.NodeID) Time { return 500 })
	c := &collector{s: s}
	n.Register(amcast.GroupNode(2), c)
	n.Send(amcast.GroupNode(1), amcast.GroupNode(2), env(amcast.KindFwd, 1))
	s.Run()
	if len(c.at) != 1 || c.at[0] != 500 {
		t.Fatalf("arrivals = %v, want [500]", c.at)
	}
}

func TestNetworkFIFOClampUnderJitter(t *testing.T) {
	s := New()
	// Decreasing jitter would reorder back-to-back sends without the clamp.
	jitters := []Time{1000, 0}
	i := 0
	n := NewNetwork(s,
		func(from, to amcast.NodeID) Time { return 100 },
		WithJitter(func(from, to amcast.NodeID) Time {
			j := jitters[i%len(jitters)]
			i++
			return j
		}))
	c := &collector{s: s}
	n.Register(amcast.GroupNode(2), c)
	n.Send(amcast.GroupNode(1), amcast.GroupNode(2), env(amcast.KindFwd, 1))
	n.Send(amcast.GroupNode(1), amcast.GroupNode(2), env(amcast.KindFwd, 2))
	s.Run()
	if len(c.envs) != 2 || c.envs[0].Msg.ID != 1 || c.envs[1].Msg.ID != 2 {
		t.Fatalf("FIFO violated: %v %v", c.envs[0].Msg.ID, c.envs[1].Msg.ID)
	}
	if c.at[0] != 1100 || c.at[1] != 1100 {
		t.Fatalf("clamped arrivals = %v, want [1100 1100]", c.at)
	}
}

func TestNetworkWithoutFIFOReorders(t *testing.T) {
	s := New()
	jitters := []Time{1000, 0}
	i := 0
	n := NewNetwork(s,
		func(from, to amcast.NodeID) Time { return 100 },
		WithJitter(func(from, to amcast.NodeID) Time {
			j := jitters[i%len(jitters)]
			i++
			return j
		}),
		WithoutFIFO())
	c := &collector{s: s}
	n.Register(amcast.GroupNode(2), c)
	n.Send(amcast.GroupNode(1), amcast.GroupNode(2), env(amcast.KindFwd, 1))
	n.Send(amcast.GroupNode(1), amcast.GroupNode(2), env(amcast.KindFwd, 2))
	s.Run()
	if c.envs[0].Msg.ID != 2 {
		t.Fatalf("expected reordering without FIFO clamp, got %v first", c.envs[0].Msg.ID)
	}
}

func TestNetworkSerialProcessing(t *testing.T) {
	s := New()
	n := NewNetwork(s,
		func(from, to amcast.NodeID) Time { return 10 },
		WithProcCost(func(node amcast.NodeID, e amcast.Envelope) Time { return 100 }))
	c := &collector{s: s}
	n.Register(amcast.GroupNode(2), c)
	// Three simultaneous arrivals queue serially: handled at 110, 210, 310.
	for i := 0; i < 3; i++ {
		n.Send(amcast.GroupNode(1), amcast.GroupNode(2), env(amcast.KindFwd, uint64(i)))
	}
	s.Run()
	want := []Time{110, 210, 310}
	for i, at := range c.at {
		if at != want[i] {
			t.Fatalf("handle times = %v, want %v", c.at, want)
		}
	}
}

func TestNetworkHooks(t *testing.T) {
	s := New()
	var sent int
	n := NewNetwork(s, func(from, to amcast.NodeID) Time { return 1 },
		WithSendHook(func(from, to amcast.NodeID, e amcast.Envelope) { sent++ }))
	n.Register(amcast.GroupNode(2), HandlerFunc(func(e amcast.Envelope) {}))
	n.Send(amcast.GroupNode(1), amcast.GroupNode(2), env(amcast.KindFwd, 1))
	s.Run()
	if sent != 1 {
		t.Fatalf("sent=%d", sent)
	}
}

func TestNetworkDoubleRegisterPanics(t *testing.T) {
	s := New()
	n := NewNetwork(s, func(from, to amcast.NodeID) Time { return 1 })
	n.Register(amcast.GroupNode(1), HandlerFunc(func(e amcast.Envelope) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("double register did not panic")
		}
	}()
	n.Register(amcast.GroupNode(1), HandlerFunc(func(e amcast.Envelope) {}))
}

func TestNetworkUnregisteredDestinationPanics(t *testing.T) {
	s := New()
	n := NewNetwork(s, func(from, to amcast.NodeID) Time { return 1 })
	n.Send(amcast.GroupNode(1), amcast.GroupNode(2), env(amcast.KindFwd, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered destination did not panic")
		}
	}()
	s.Run()
}
