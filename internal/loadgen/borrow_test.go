package loadgen

import (
	"testing"
	"time"

	"flexcast/internal/prototest"
	"flexcast/internal/runtime"
	"flexcast/internal/transport"
)

// TestRunUnderPoisonedLoans runs the executing deployment on every
// transport with both lenders poisoning instead of zeroing: the batcher
// overwrites a batch with garbage the moment its send function returns,
// the transports do the same to a dispatch buffer the moment its
// handler returns. Any sink that kept a borrowed slice — the WAN delay
// queue is the one that has to copy — then forwards garbage instead of
// the envelopes it was given: transactions time out or the execution
// audits fail, and under -race the overwrite is a reported data race.
func TestRunUnderPoisonedLoans(t *testing.T) {
	prototest.PoisonLoans(t, &runtime.Scrub, &transport.Scrub)
	for _, tr := range []string{"inmem", "wan", "tcp"} {
		cfg := shortCfg()
		cfg.Execute = true
		cfg.Transport = tr
		cfg.Duration = time.Second
		cfg.Timeout = 5 * time.Second
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if res.Completed == 0 {
			t.Fatalf("%s: nothing completed", tr)
		}
		checkExecuteResult(t, res)
		if err := res.Validate(cfg); err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
	}
}

// TestDeadlineOutcomes covers the reusable session deadline: each of
// the three ways a wait ends, and reuse after a timer that fired while
// another case won the select (a stale tick must not time the next wait
// out).
func TestDeadlineOutcomes(t *testing.T) {
	var dl deadline
	done, stop, never := make(chan struct{}), make(chan struct{}), make(chan struct{})
	close(done)
	close(stop)
	if got := dl.await(done, time.Hour, never); got != waitDone {
		t.Fatalf("closed done: %v", got)
	}
	if got := dl.await(never, time.Hour, stop); got != waitStopped {
		t.Fatalf("closed stop: %v", got)
	}
	if got := dl.await(never, time.Millisecond, never); got != waitTimedOut {
		t.Fatalf("expired: %v", got)
	}
	// Let the timer fire before the select runs: done wins or loses the
	// race, and either way the next long wait must see done, not a tick.
	for i := 0; i < 50; i++ {
		dl.await(done, time.Nanosecond, never)
		if got := dl.await(done, time.Hour, never); got != waitDone {
			t.Fatalf("round %d: stale timer tick leaked into the next wait: %v", i, got)
		}
	}
}

// TestAllocBudgetDeadline pins "one timer per session": after the
// first wait has created the timer, a closed-loop iteration's wait arms
// no new one (time.After allocated a timer and its channel per
// transaction, uncollectable until it fired).
func TestAllocBudgetDeadline(t *testing.T) {
	if prototest.RaceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	var dl deadline
	done, never := make(chan struct{}), make(chan struct{})
	close(done)
	dl.await(done, 30*time.Second, never)
	first := dl.t
	if n := testing.AllocsPerRun(1000, func() { dl.await(done, 30*time.Second, never) }); n != 0 {
		t.Fatalf("a wait allocates %v, want 0", n)
	}
	if dl.t != first {
		t.Fatal("the session's timer was replaced")
	}
}
