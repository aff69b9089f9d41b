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
