package loadgen

import (
	"sync"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/deploy"
	"flexcast/internal/metrics"
)

// waveRig is a client process whose request frames all go to group 1,
// with k closed-loop sessions (closedLoop itself) behind it and the test
// playing the groups: it sees every frame the client sends and answers
// whichever requests it chooses, in one reply frame per call.
type waveRig struct {
	c      *clientProc
	stop   chan struct{}
	errCh  chan error
	wg     sync.WaitGroup
	mu     sync.Mutex
	frames [][]amcast.Envelope // every request frame sent, in send order
	envs   int                 // envelopes across frames
	// sent gets one token per frame; sized so a send, which runs under
	// the batcher's lock, never blocks on a test that stopped reading.
	sent chan struct{}
}

func newWaveRig(cfg Config, hold bool) *waveRig {
	// errCh has room for every session's error (sendErr drops extras).
	r := &waveRig{stop: make(chan struct{}), errCh: make(chan error, 64), sent: make(chan struct{}, 1<<16)}
	r.c = postClient(func(_ amcast.NodeID, envs []amcast.Envelope) {
		r.mu.Lock()
		r.frames = append(r.frames, append([]amcast.Envelope(nil), envs...))
		r.envs += len(envs)
		r.mu.Unlock()
		r.sent <- struct{}{}
	})
	r.c.holdWaves = hold
	r.c.run = &run{cfg: cfg, proto: &deploy.Deployment{Groups: []amcast.GroupID{1, 2}},
		hist: metrics.NewHistogram(), readHist: metrics.NewHistogram()}
	return r
}

// start runs k sessions.
func (r *waveRig) start(k int) {
	for w := 0; w < k; w++ {
		r.wg.Add(1)
		go func(w int) {
			defer r.wg.Done()
			closedLoop(r.c, w, r.c.run.cfg, r.stop, r.errCh)
		}(w)
	}
}

// await blocks until the client has sent n envelopes in all and returns
// the frames sent so far.
func (r *waveRig) await(t *testing.T, n int) [][]amcast.Envelope {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		r.mu.Lock()
		frames, envs := r.frames, r.envs
		r.mu.Unlock()
		if envs >= n {
			return frames
		}
		select {
		case <-r.sent:
		case <-deadline:
			t.Fatalf("the client sent %d envelopes in %d frames, want %d", envs, len(frames), n)
		}
	}
}

// reply answers every request and read in frames as one reply frame:
// one committed reply from each destination group.
func (r *waveRig) reply(frames ...[]amcast.Envelope) {
	var out []amcast.Envelope
	for _, frame := range frames {
		for _, env := range frame {
			for _, g := range env.Msg.Dst {
				out = append(out, amcast.Envelope{Kind: amcast.KindReply, From: amcast.GroupNode(g),
					Msg: env.Msg.Header(), Result: amcast.ResultCommitted})
			}
		}
	}
	r.c.onReplies(out)
}

// echo answers each frame as it is sent, one reply frame per request
// frame, until every session has returned; it then checks that no
// woken session is still counted and that nothing was left in the
// batcher, and returns the sessions' first error.
func (r *waveRig) echo(t *testing.T) error {
	t.Helper()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	answered := 0
	deadline := time.After(10 * time.Second)
	for {
		r.mu.Lock()
		frames := r.frames[answered:]
		answered = len(r.frames)
		r.mu.Unlock()
		for _, f := range frames {
			r.reply(f)
		}
		select {
		case <-r.sent:
			continue
		case <-done:
		case <-deadline:
			t.Fatal("a session never returned: its request was left in the batcher or its reply never came")
		}
		break
	}
	if n := r.c.wave.Load(); n != 0 {
		t.Fatalf("%d sessions still counted in the wave after every session returned", n)
	}
	r.mu.Lock()
	before := len(r.frames)
	r.mu.Unlock()
	r.c.batcher.FlushAll()
	r.mu.Lock()
	after := len(r.frames)
	r.mu.Unlock()
	if after != before {
		t.Fatal("a request was left in the client batcher after every session returned")
	}
	select {
	case err := <-r.errCh:
		return err
	default:
		return nil
	}
}

// TestPostWaveLeavesAsOneFrame wakes k sessions of a holding (TCP)
// client with one reply frame: their k next requests leave in one send,
// where a client flushing on every post sends k frames.
func TestPostWaveLeavesAsOneFrame(t *testing.T) {
	const k = 8
	r := newWaveRig(Config{Seed: 1, Locality: 0.95}, true)
	r.start(k)
	first := r.await(t, k)
	r.reply(first...)
	frames := r.await(t, 2*k)
	if wave := frames[len(first):]; len(wave) != 1 {
		t.Fatalf("one reply frame woke %d sessions; their requests left in %d frames, want 1", k, len(wave))
	}
	close(r.stop)
	r.reply(frames[len(first):]...)
	if err := r.echo(t); err != nil {
		t.Fatal(err)
	}
}

// TestPostWaveExitPaths runs sessions of a holding client against groups
// answering every frame at once, through each way a woken session can
// leave its wave without posting a write: a read roll (remote reads),
// an error (a read with no executor to serve it) and stop. Every session
// must return, with no session left counted and nothing left in the
// batcher.
func TestPostWaveExitPaths(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		wantErr bool
		minSent int // requests the sessions must have sent
	}{
		{"read", Config{ReadPct: 50, Replicas: 2}, false, 8},
		// Each session returns at its first read roll; the ones whose
		// first roll is a write return woken.
		{"error", Config{ReadPct: 50, Replicas: 1}, true, 1},
		{"stop", Config{}, false, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed, tc.cfg.Locality = 1, 0.95
			r := newWaveRig(tc.cfg, true)
			r.start(8)
			time.AfterFunc(50*time.Millisecond, func() { close(r.stop) })
			err := r.echo(t)
			if (err != nil) != tc.wantErr {
				t.Fatalf("sessions returned error %v, want an error: %v", err, tc.wantErr)
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.envs < tc.minSent {
				t.Fatalf("%d requests sent, want at least %d", r.envs, tc.minSent)
			}
		})
	}
}

// TestPostWaveCountsOnlySessionWrites completes one call of each kind a
// holding client waits on or issues: only the closed-loop write counts
// its session into the wave. The flush client's silent multicast, a
// remote read, an open-loop write and an expired call do not.
func TestPostWaveCountsOnlySessionWrites(t *testing.T) {
	r := newWaveRig(Config{}, true)
	c := r.c
	for i, tc := range []struct {
		name            string
		tx              txState
		waited, expired bool
	}{
		{"flush client", txState{silent: true}, true, false},
		{"remote read", txState{isRead: true}, true, false},
		{"open-loop write", txState{}, false, false},
		{"expired write", txState{}, true, true},
		{"closed-loop write", txState{}, true, false},
	} {
		m := postMsg(0, i+1)
		call := c.open(m, tc.tx, tc.waited)
		if tc.expired {
			c.mu.Lock()
			call.Data.issued = time.Now().Add(-time.Hour)
			c.mu.Unlock()
			c.expire(time.Now().Add(-time.Minute))
		}
		r.reply([]amcast.Envelope{{Kind: amcast.KindRequest, Msg: m}})
		counted := tc.name == "closed-loop write"
		want := int64(0)
		if counted {
			want = 1
		}
		if got := c.wave.Load(); got != want || call.Data.woken != counted {
			t.Fatalf("%s: wave %d, woken %v after its completion; want %d, %v", tc.name, got, call.Data.woken, want, counted)
		}
	}
}

// TestPostWaveHeldOnTCPOnly checks the policy launch selects: TCP
// clients hold waves, in-memory and WAN-emulated clients flush on every
// post — a completion there counts no one, so the woken session's next
// request goes through post and is with the transport when post returns.
func TestPostWaveHeldOnTCPOnly(t *testing.T) {
	for _, transport := range []string{"inmem", "wan", "tcp"} {
		cfg := shortCfg()
		cfg.Transport = transport
		if err := cfg.Fill(); err != nil {
			t.Fatal(err)
		}
		proto, err := assemble(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		r := &run{cfg: cfg, proto: proto, hist: metrics.NewHistogram(), readHist: metrics.NewHistogram()}
		dep, clients, err := launch(cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if c.holdWaves != (transport == "tcp") {
				t.Errorf("%s client %d: holds waves %v", transport, c.idx, c.holdWaves)
			}
		}
		c := clients[0]
		m := c.calls.Message(1, []amcast.GroupID{1}, 0, nil)
		call := c.open(m, txState{}, true)
		c.onReplies([]amcast.Envelope{{Kind: amcast.KindReply, From: amcast.GroupNode(1), Msg: m.Header(), Result: amcast.ResultCommitted}})
		want := int64(0)
		if transport == "tcp" {
			want = 1
		}
		if call.Data.woken != (want == 1) || c.wave.Load() != want {
			t.Errorf("%s: a completed session write left woken %v, wave %d", transport, call.Data.woken, c.wave.Load())
		}
		dep.close()
	}
}

// TestPostWaveTCPRuns runs the closed loop on TCP: a plain run sends
// fewer client frames than requests and reports them apart from the
// groups' batches, and a run with half its iterations reads completes.
func TestPostWaveTCPRuns(t *testing.T) {
	cfg := shortCfg()
	cfg.Transport, cfg.Groups, cfg.Workers = "tcp", 4, 16
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(cfg); err != nil {
		t.Fatal(err)
	}
	if res.ClientBatches == 0 || res.ClientBatches >= res.ClientEnvelopes || res.ClientEnvelopes < res.Completed {
		t.Fatalf("clients sent %d requests in %d frames for %d completions; want fewer frames than requests",
			res.ClientEnvelopes, res.ClientBatches, res.Completed)
	}
	cfg.Execute, cfg.ReadPct = true, 50
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Reads == 0 {
		t.Fatalf("a -read-pct 50 TCP run completed %d writes and %d reads", res.Completed, res.Reads)
	}
}
