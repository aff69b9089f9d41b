package main

import (
	"testing"
)

const testLedgerTxs = 2000

// testLedger is a workload's ledger at test size.
func testLedger(t *testing.T, name string, seed int64) ledgerConfig {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	cfg := w.ledgerConfig(seed, testLedgerTxs, t.TempDir())
	// A period short enough for the 2000-transaction stream to cross
	// flush deliveries and their history pruning.
	cfg.flushEvery = 600
	return cfg
}

// The decorator must be invisible to the stack it is interposed in: the
// same seeded stream through decorated and undecorated stacks reaches
// the same shard digests — through batch steps, delivery drains, durable
// snapshots, log replay and restore (the durable ledger's audit recovers
// every group from disk into a fresh stack and compares digests) and
// follower feeds.
func TestDecoratorPreservesBehaviour(t *testing.T) {
	for _, name := range []string{"durable", "global-tcp", "read-mix"} {
		decorated := testLedger(t, name, 1)
		plain := testLedger(t, name, 1)
		plain.spans = false
		got, err := runLedger(decorated)
		if err != nil {
			t.Fatalf("%s decorated: %v", name, err)
		}
		want, err := runLedger(plain)
		if err != nil {
			t.Fatalf("%s undecorated: %v", name, err)
		}
		if got.digest != want.digest {
			t.Errorf("%s: decorated stack digest %x, undecorated %x", name, got.digest[:8], want.digest[:8])
		}
		if got.steps != want.steps || got.envsIn != want.envsIn || got.frames != want.frames {
			t.Errorf("%s: decorated run took %d steps / %d envelopes / %d frames, undecorated %d / %d / %d",
				name, got.steps, got.envsIn, got.frames, want.steps, want.envsIn, want.frames)
		}
		if name == "durable" && got.durableSnapshots == 0 {
			t.Errorf("durable: no snapshot was taken in %d transactions; the restore path went unexercised", testLedgerTxs)
		}
		if got.spans == 0 || want.spans != 0 {
			t.Errorf("%s: decorated run recorded %d spans, undecorated %d", name, got.spans, want.spans)
		}
	}
}

// Counts are the part of the ledger a later change may rest a claim on,
// so they must be a function of the seed alone.
func TestLedgerCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		if w.sim {
			continue
		}
		var first string
		for _, seed := range []int64{1, 1, 7} {
			res, err := runLedger(testLedger(t, w.name, seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			counts := res.counts()
			switch {
			case first == "":
				first = counts
			case seed == 1 && counts != first:
				t.Errorf("%s: two runs of seed 1 counted differently:\n%s\n--- vs ---\n%s", w.name, first, counts)
			case seed == 7 && counts == first:
				t.Errorf("%s: seed 7 reproduced seed 1's stream exactly; the seed does not reach the inputs", w.name)
			}
		}
	}
}

// FlexCast is genuine: no payload reaches a group outside the message's
// destinations. The hierarchical baseline relays through inner nodes,
// which is what hierarchical.overhead_frac measures.
func TestLedgerGenuineness(t *testing.T) {
	flex, err := runLedger(testLedger(t, "global-tcp", 1))
	if err != nil {
		t.Fatal(err)
	}
	if flex.nondestPayload != 0 {
		t.Errorf("flexcast: %d payload envelopes at non-destination groups, want 0", flex.nondestPayload)
	}
	cfg := testLedger(t, "global-tcp", 1)
	cfg.protocol, cfg.codec = "hierarchical", false
	hier, err := runLedger(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hier.nondestPayload == 0 {
		t.Errorf("hierarchical: no payload envelope at a non-destination group in %d global transactions; the counter is not counting", testLedgerTxs)
	}
}

func TestSMRStreamSeeded(t *testing.T) {
	draw := func(seed int64) (local, global int, key string) {
		s := newSMRStream(seed)
		for i := 0; i < 1000; i++ {
			dst := s.next()
			switch len(dst) {
			case 1:
				local++
			case 2:
				global++
				if dst[0] >= dst[1] {
					t.Fatalf("destinations %v not sorted and distinct", dst)
				}
			}
			key += string(rune('0' + len(dst)*8 + int(dst[0])))
		}
		return local, global, key
	}
	l1, g1, k1 := draw(1)
	_, _, again := draw(1)
	_, _, k7 := draw(7)
	if l1+g1 != 1000 || g1 < 50 || g1 > 150 {
		t.Errorf("seed 1 drew %d local and %d two-group operations of 1000, want about 900/100", l1, g1)
	}
	if k1 != again {
		t.Error("seed 1 drew two different streams")
	}
	if k1 == k7 {
		t.Error("seeds 1 and 7 drew the same stream")
	}
}
