package loadgen

import (
	"strings"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/deploy"
	"flexcast/internal/metrics"
)

// The admission gate is deterministic on an injected clock (admit takes
// nowNs), so these tests assert exact shed counts — no sleeps, no
// slack.

// TestAdmissionTokenBucket pins the bucket arithmetic: a fresh session
// starts with a full burst, refills at the configured rate on the
// caller's clock, and caps at the burst.
func TestAdmissionTokenBucket(t *testing.T) {
	a := admission{rate: 1000, burst: 4, cap: 1 << 20}
	s := &session{id: 1, prefix: make(amcast.PrefixTracker)}
	now := int64(1) // any nonzero origin
	for i := 0; i < 4; i++ {
		if !a.admit(s, now) {
			t.Fatalf("admit %d refused with a full burst", i)
		}
	}
	if a.admit(s, now) {
		t.Fatal("admitted past the burst with no time elapsed")
	}
	// 1ms at 1000 tok/s owes exactly one token.
	now += int64(time.Millisecond)
	if !a.admit(s, now) {
		t.Fatal("refill after 1ms refused")
	}
	if a.admit(s, now) {
		t.Fatal("second admit on a single refilled token")
	}
	// A long idle period caps at the burst, not rate×elapsed.
	now += int64(time.Hour)
	for i := 0; i < 4; i++ {
		if !a.admit(s, now) {
			t.Fatalf("admit %d refused after idle refill", i)
		}
	}
	if a.admit(s, now) {
		t.Fatal("idle refill exceeded the burst")
	}
	if s.admitted != 9 || s.shed != 3 {
		t.Fatalf("admitted %d shed %d, want 9/3", s.admitted, s.shed)
	}
}

// TestAdmissionOutstandingCap pins the in-flight bound: a session whose
// admitted work has not completed is refused at the cap, and release
// reopens exactly one slot.
func TestAdmissionOutstandingCap(t *testing.T) {
	a := admission{rate: 0, burst: 1 << 20, cap: 4}
	s := &session{id: 1, prefix: make(amcast.PrefixTracker)}
	now := int64(1)
	for i := 0; i < 4; i++ {
		if !a.admit(s, now) {
			t.Fatalf("admit %d refused below the cap", i)
		}
	}
	if a.admit(s, now) {
		t.Fatal("admitted past the outstanding cap")
	}
	s.release()
	if !a.admit(s, now) {
		t.Fatal("refused after a release opened a slot")
	}
	if a.admit(s, now) {
		t.Fatal("one release admitted two")
	}
}

// TestAdmissionSpikeShedsExactly emulates a latency spike across a
// session table: replies stop (no releases), so each session fills its
// cap and every further issuance on it is shed — in exactly the counts
// the arithmetic predicts, per session and in total. When the spike
// ends (releases), admission resumes.
func TestAdmissionSpikeShedsExactly(t *testing.T) {
	const nSessions, cap, offers = 3, 2, 10
	a := admission{rate: 0, burst: 1 << 20, cap: cap}
	sessions := newSessions(0, nSessions)
	now := int64(1)
	var admitted, shed int
	for i := 0; i < nSessions*offers; i++ {
		if a.admit(sessions[i%nSessions], now) {
			admitted++
		} else {
			shed++
		}
	}
	if admitted != nSessions*cap || shed != nSessions*(offers-cap) {
		t.Fatalf("spike admitted %d shed %d, want %d/%d",
			admitted, shed, nSessions*cap, nSessions*(offers-cap))
	}
	for _, s := range sessions {
		if s.admitted != cap || s.shed != offers-cap {
			t.Fatalf("session %d admitted %d shed %d, want %d/%d",
				s.id, s.admitted, s.shed, cap, offers-cap)
		}
	}
	// Spike ends: every outstanding completes, sessions admit again.
	for _, s := range sessions {
		for i := 0; i < cap; i++ {
			s.release()
		}
	}
	for _, s := range sessions {
		if !a.admit(s, now) {
			t.Fatalf("session %d refused after the spike drained", s.id)
		}
	}
}

// TestSessionIDsPartition pins the session-id vocabulary the wire
// format depends on: ids start at 1 (0 is "no session") and each
// client's block is disjoint.
func TestSessionIDsPartition(t *testing.T) {
	seen := map[uint64]bool{}
	for client := 0; client < 3; client++ {
		for _, s := range newSessions(client, 4) {
			if s.id == 0 {
				t.Fatal("session id 0 allocated (reserved for \"no session\")")
			}
			if seen[s.id] {
				t.Fatalf("session id %d allocated twice", s.id)
			}
			seen[s.id] = true
		}
	}
	if len(seen) != 12 {
		t.Fatalf("%d distinct ids, want 12", len(seen))
	}
}

// TestSessionReplyRouting drives the reply handler directly: a reply
// carrying a session id advances THAT session's barrier and releases
// its outstanding slot; other sessions' vectors stay untouched; replies
// without the flag touch no session. This is the per-session watermark
// vector half of the multiplexing contract — read-your-writes per
// session over one shared connection.
func TestSessionReplyRouting(t *testing.T) {
	r := &run{cfg: Config{}, hist: metrics.NewHistogram(), readHist: metrics.NewHistogram()}
	c := &clientProc{
		idx:      0,
		id:       amcast.ClientNode(0),
		calls:    client.NewCalls[txState](0, nil),
		sessions: newSessions(0, 4),
		run:      r,
	}
	c.sessBase = c.sessions[0].id
	s := c.sessions[2]
	s.outstanding = 1

	id := amcast.NewMsgID(0, 7)
	c.calls.Issue(c.calls.Message(7, []amcast.GroupID{3}, 0, nil), txState{issued: time.Now(), sess: s})
	c.onReplies([]amcast.Envelope{{
		Kind: amcast.KindReply,
		From: amcast.GroupNode(3),
		Msg: amcast.Message{
			ID: id, Sender: c.id, Dst: []amcast.GroupID{3},
			Flags: amcast.FlagSession, Session: s.id,
		},
		TS: 9, Watermark: 11,
	}})
	if got := s.barrier(3); got != 11 {
		t.Fatalf("session barrier at group 3 = %d, want 11 (the reply watermark)", got)
	}
	if s.outstanding != 0 {
		t.Fatalf("completion left outstanding = %d", s.outstanding)
	}
	for i, other := range c.sessions {
		if i != 2 && other.barrier(3) != 0 {
			t.Fatalf("session %d barrier moved on another session's reply", i)
		}
	}
	// The process-level barrier advanced too (it serves the read path).
	if got := c.observedPrefix(3); got != 11 {
		t.Fatalf("process barrier = %d, want 11", got)
	}
	// A foreign or absent session id resolves to nil, never panics.
	if c.sessionOf(amcast.Message{Flags: amcast.FlagSession, Session: 1 << 40}) != nil {
		t.Fatal("foreign session id resolved")
	}
	if c.sessionOf(amcast.Message{Session: s.id}) != nil {
		t.Fatal("session resolved without the flag")
	}
}

// TestWindowAccounting is the satellite-4 regression pin: Completed and
// the latency histogram count exactly the transactions whose full
// issue→completion lifetime fits inside [windowStart, windowStart +
// Duration]. In particular a reply processed after the window closes —
// the open loop's queued-but-unanswered backlog draining late — adds
// nothing, so open-loop throughput can never be inflated by work that
// was still queued at window close.
func TestWindowAccounting(t *testing.T) {
	r := &run{cfg: Config{}, hist: metrics.NewHistogram(), readHist: metrics.NewHistogram()}
	r.sloTargetUs = 1000 // 1ms SLO target, to pin goodput gating too
	base := time.Unix(1000, 0)
	r.openWindow(base, time.Second)
	end := base.Add(time.Second)

	tx := func(issued time.Time) *client.Call[txState] {
		return &client.Call[txState]{Data: txState{issued: issued}}
	}
	// Issued in warmup, completed in window: excluded.
	r.complete(tx(base.Add(-time.Millisecond)), base.Add(time.Millisecond))
	// Issued and completed in window, under the SLO target: counted, good.
	r.complete(tx(base.Add(time.Millisecond)), base.Add(1500*time.Microsecond))
	// Issued and completed in window, over the SLO target: counted, not good.
	r.complete(tx(base.Add(time.Millisecond)), base.Add(500*time.Millisecond))
	// Issued in window, completed after close (the late backlog): excluded.
	r.complete(tx(base.Add(900*time.Millisecond)), end.Add(time.Millisecond))
	// Completed exactly at the window edge: included (closed interval);
	// its latency is exactly the 1ms target, which still scores good
	// (the target is an upper bound, inclusive).
	r.complete(tx(base.Add(999*time.Millisecond)), end)

	if got := r.completed.Load(); got != 3 {
		t.Fatalf("completed = %d, want 3 (warmup carry-over and late backlog excluded)", got)
	}
	if got := r.hist.Summary().Count; got != 3 {
		t.Fatalf("histogram count = %d, want 3", got)
	}
	if got := r.good.Load(); got != 2 {
		t.Fatalf("slo-good = %d, want 2 (the 500µs and the at-target completions)", got)
	}
	// Before the window opens, nothing counts.
	r2 := &run{cfg: Config{}, hist: metrics.NewHistogram(), readHist: metrics.NewHistogram()}
	r2.complete(tx(base), base.Add(time.Millisecond))
	if r2.completed.Load() != 0 {
		t.Fatal("completion counted before the window opened")
	}
}

// TestBuildSLO scores a synthetic trace with known goodput: the section
// arithmetic (goodput, good fraction, shed rate over offered load) must
// come out exactly.
func TestBuildSLO(t *testing.T) {
	s := buildSLO(5, 80, 100, 120, 30, 2, []SLOPoint{{TMs: 0, QueueDepth: 3}})
	if s.TargetMs != 5 || s.GoodCompleted != 80 {
		t.Fatalf("target/good mangled: %+v", s)
	}
	if s.Goodput != 40 {
		t.Fatalf("goodput = %v, want 40 (80 good over 2s)", s.Goodput)
	}
	if s.GoodFraction != 0.8 {
		t.Fatalf("good fraction = %v, want 0.8", s.GoodFraction)
	}
	if s.ShedRate != 0.2 {
		t.Fatalf("shed rate = %v, want 0.2 (30 shed of 150 offered)", s.ShedRate)
	}
	if len(s.Trajectory) != 1 {
		t.Fatalf("trajectory lost: %+v", s)
	}
	// Degenerate inputs divide to zero, not NaN.
	z := buildSLO(5, 0, 0, 0, 0, 0, nil)
	if z.Goodput != 0 || z.GoodFraction != 0 || z.ShedRate != 0 {
		t.Fatalf("zero trace produced nonzero rates: %+v", z)
	}
}

// sloResult builds a minimally valid result carrying an SLO section,
// for the validator rejection tests to perturb.
func sloResult() *Result {
	res := &Result{
		Completed:     100,
		Issued:        120,
		Shed:          30,
		Throughput:    50,
		WindowSecs:    2,
		BatchesSent:   10,
		EnvelopesSent: 100,
		Latency: metrics.LatencySummary{
			Count: 100, Min: 10, P50: 100, P90: 200, P99: 400, P999: 500, Max: 600, Mean: 150,
		},
	}
	res.SLO = buildSLO(5, 80, res.Completed, res.Issued, res.Shed, 2, nil)
	return res
}

// TestValidateSLOSection pins the validator's SLO contract: a section
// without a target, shed exceeding issued, good exceeding completed, or
// an inconsistent shed rate all reject; the unperturbed result passes.
func TestValidateSLOSection(t *testing.T) {
	check := func(name string, mutate func(*Result), wantErr string) {
		t.Helper()
		res := sloResult()
		mutate(res)
		err := res.Validate(Config{})
		if wantErr == "" {
			if err != nil {
				t.Fatalf("%s: valid result rejected: %v", name, err)
			}
			return
		}
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: error %v, want %q", name, err, wantErr)
		}
	}
	check("ok", func(r *Result) {}, "")
	check("no-target", func(r *Result) { r.SLO.TargetMs = 0 }, "without a latency target")
	check("shed-gt-issued", func(r *Result) {
		r.Shed = r.Issued + 1
		r.SLO = buildSLO(5, 80, r.Completed, r.Issued, r.Shed, 2, nil)
	}, "exceeds issued")
	check("good-gt-completed", func(r *Result) { r.SLO.GoodCompleted = 101 }, "exceed completions")
	check("shed-rate-skew", func(r *Result) { r.SLO.ShedRate = 0.5 }, "inconsistent with shed")
	check("bad-trajectory", func(r *Result) {
		r.SLO.Trajectory = []SLOPoint{{TMs: 5, QueueDepth: -1}}
	}, "trajectory point")
	check("unordered-trajectory", func(r *Result) {
		r.SLO.Trajectory = []SLOPoint{
			{TMs: 5, QueueDepth: 1},
			{TMs: 4, QueueDepth: 1},
		}
	}, "not time-ordered")
}

// TestSessionConfigContract pins the new knobs' validation: sessions
// require an open loop, and the counts must be non-negative.
func TestSessionConfigContract(t *testing.T) {
	cfg := shortCfg()
	cfg.Sessions = 8
	if _, err := Run(cfg); err == nil {
		t.Fatal("-sessions without -rate accepted")
	}
	cfg = shortCfg()
	cfg.SLOMs = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative SLO target accepted")
	}
	cfg = shortCfg()
	cfg.Rate = 100
	cfg.Sessions = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative session count accepted")
	}
}

// TestOpenLoopShedsWriteSlotsOnly drives the open loop at a read mix of
// 50 % behind the process-wide gate with the process already at its cap
// (its one allowed call in flight), so the gate refuses every write.
// Every slot the loop takes is then a read it served or a write it
// shed: the shed count must equal the write slots among the slots
// taken, replayed from the same read coin. Shedding the rest of a
// refused slot's burst at once would count the burst's read slots as
// shed writes.
func TestOpenLoopShedsWriteSlotsOnly(t *testing.T) {
	cfg := Config{Rate: 20000, ReadPct: 50, Replicas: 2, MaxOutstanding: 1, Seed: 1, Locality: 0.95}
	reads := 0 // remote reads sent; the open loop's goroutine is the only sender
	c := postClient(func(_ amcast.NodeID, envs []amcast.Envelope) {
		for _, env := range envs {
			if env.Kind == amcast.KindRead {
				reads++
			}
		}
	})
	c.run = &run{cfg: cfg, proto: &deploy.Deployment{Groups: []amcast.GroupID{1, 2}}}
	c.run.measuring.Store(true)
	c.issue(postMsg(0, 1), txState{silent: true}, false)

	stop, done, errCh := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		openLoop(c, cfg, stop, errCh)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	shed := c.run.shed.Load()
	slots := uint64(reads) + shed
	if slots < 100 || c.run.issued.Load() != 0 {
		t.Fatalf("%d slots taken, %d writes issued past a full gate; want >= 100 and 0", slots, c.run.issued.Load())
	}
	coin := readRNG(cfg, c.idx, 0)
	var writes uint64
	for i := uint64(0); i < slots; i++ {
		if !readRoll(coin, cfg) {
			writes++
		}
	}
	if shed != writes {
		t.Fatalf("%d slots (%d reads): shed %d, want the %d write slots", slots, reads, shed, writes)
	}
}
