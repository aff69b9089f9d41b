package loadgen

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/transport"
)

// TestDelayNetCloseRacesSends races Close against senders that are still
// sending — what a deployment's teardown does, since it closes the net
// before the nodes, whose ACKs and NOTIFs keep coming. A send either
// enters its link before Close drains the links, and is then delivered
// before Close returns, or it is dropped; none may panic on a link
// Close has already shut.
func TestDelayNetCloseRacesSends(t *testing.T) {
	const senders, sends, rounds = 8, 50, 500
	groups := []amcast.GroupID{1, 2}
	batch := []amcast.Envelope{{Kind: amcast.KindAck}}
	for round := 0; round < rounds; round++ {
		d := newDelayNet(transport.NewInMemNet(), groups)
		var delivered atomic.Int64
		count := func(envs []amcast.Envelope) { delivered.Add(int64(len(envs))) }
		for _, g := range groups {
			if _, err := d.Attach(amcast.GroupNode(g), count); err != nil {
				t.Fatal(err)
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < senders; i++ {
			send, err := d.Attach(amcast.ClientNode(i), count)
			if err != nil {
				t.Fatal(err)
			}
			// Each client sends over its same-region link (0.5 ms), so a
			// round's accepted batches fall due quickly.
			home := amcast.GroupNode(groups[i%len(groups)])
			send(home, batch) // accepted before Close: must be delivered
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < sends; k++ {
					send(home, batch)
				}
			}()
		}
		close(start)
		d.Close()
		atClose := delivered.Load()
		wg.Wait()
		if atClose < senders {
			t.Fatalf("round %d: %d batches delivered by Close, want at least the %d accepted before it", round, atClose, senders)
		}
		if got := delivered.Load(); got != atClose {
			t.Fatalf("round %d: %d batches delivered after Close returned", round, got-atClose)
		}
	}
}

// TestDelayNetDeliversOnTime sends paced batches over a same-region link
// (0.5 ms) and a cross-region one (us-east-2 → us-east-1, 6 ms) and
// checks each arrival against its due time: per-link FIFO, nothing
// early — a wait cut short must be re-armed, not delivered — and a
// median lateness well under the 1 ms granularity of a Go timer on an
// idle runtime. Lateness is measured from just before the send, so it
// over-counts by the send's own cost; a loaded machine gets a few
// attempts at the median bound, never at the other two.
func TestDelayNetDeliversOnTime(t *testing.T) {
	const (
		batches    = 200
		spacing    = 700 * time.Microsecond
		maxMedian  = 250 * time.Microsecond
		maxAttempt = 3
	)
	type link struct {
		from, to amcast.NodeID
		delay    time.Duration
	}
	links := []link{
		{amcast.ClientNode(0), amcast.GroupNode(1), 500 * time.Microsecond},
		{amcast.GroupNode(1), amcast.GroupNode(2), 6 * time.Millisecond},
	}
	var medians []time.Duration
	for attempt := 1; attempt <= maxAttempt; attempt++ {
		d := newDelayNet(transport.NewInMemNet(), []amcast.GroupID{1, 2})
		// Every node receives over at most one link, so arrivals are
		// recorded per receiver by that link's drainer alone.
		arrivals := map[amcast.NodeID]*[]arrival{}
		sends := map[amcast.NodeID]func(amcast.NodeID, []amcast.Envelope){}
		for _, id := range []amcast.NodeID{amcast.ClientNode(0), amcast.GroupNode(1), amcast.GroupNode(2)} {
			got := &[]arrival{}
			arrivals[id] = got
			send, err := d.Attach(id, func(envs []amcast.Envelope) {
				now := time.Now()
				for _, e := range envs {
					*got = append(*got, arrival{seq: e.TS, at: now})
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			sends[id] = send
		}
		sent := make([][]time.Time, len(links))
		var wg sync.WaitGroup
		for i, l := range links {
			if got := d.delay(l.from, l.to); got != l.delay {
				t.Fatalf("link %v→%v delays %v, want %v", l.from, l.to, got, l.delay)
			}
			sent[i] = make([]time.Time, batches)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range sent[i] {
					sent[i][k] = time.Now()
					sends[l.from](l.to, []amcast.Envelope{{Kind: amcast.KindAck, TS: uint64(k)}})
					time.Sleep(spacing)
				}
			}()
		}
		wg.Wait()
		d.Close() // delivers every accepted batch before it returns

		var late []time.Duration
		for i, l := range links {
			got := *arrivals[l.to]
			if len(got) != batches {
				t.Fatalf("link %v→%v: %d of %d batches arrived", l.from, l.to, len(got), batches)
			}
			for k, a := range got {
				if a.seq != uint64(k) {
					t.Fatalf("link %v→%v: arrival %d is batch %d (per-link FIFO broken)", l.from, l.to, k, a.seq)
				}
				lateness := a.at.Sub(sent[i][k].Add(l.delay))
				if lateness < 0 {
					t.Fatalf("link %v→%v: batch %d arrived %v early", l.from, l.to, k, -lateness)
				}
				late = append(late, lateness)
			}
		}
		slices.Sort(late)
		median := late[len(late)/2]
		t.Logf("attempt %d: lateness p50 %v, p90 %v, max %v", attempt, median, late[len(late)*9/10], late[len(late)-1])
		if median < maxMedian {
			return
		}
		medians = append(medians, median)
	}
	t.Fatalf("median lateness %v over %d attempts, want < %v", medians, maxAttempt, maxMedian)
}

type arrival struct {
	seq uint64
	at  time.Time
}
