package loadgen

import (
	"os"
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

// TestDelayNetManyLinksNeverEarly runs 96 sub-millisecond links at once
// — 48 client processes, each to and from its same-region group (0.5 ms)
// — with paced batches on every link: no batch arrives before its due
// time, and every batch arrives, per link in order.
func TestDelayNetManyLinksNeverEarly(t *testing.T) {
	const clients, batches = 48, 40
	groups := make([]amcast.GroupID, 12)
	for i := range groups {
		groups[i] = amcast.GroupID(i + 1)
	}
	d := newDelayNet(transport.NewInMemNet(), groups)
	type link struct{ from, to amcast.NodeID }
	var links []link
	for i := 0; i < clients; i++ {
		c, g := amcast.ClientNode(i), amcast.GroupNode(groups[i%len(groups)])
		links = append(links, link{c, g}, link{g, c})
	}
	// A batch carries its link index and its due time; the receiver
	// checks the due time as the batch arrives.
	var mu sync.Mutex
	early, got := 0, make([]int, len(links))
	receive := func(envs []amcast.Envelope) {
		now := time.Now().UnixNano()
		mu.Lock()
		defer mu.Unlock()
		for _, e := range envs {
			if now < int64(e.TS) {
				early++
			}
			l := int(e.TSFrom)
			if int(e.Watermark) != got[l] {
				t.Errorf("link %d: batch %d arrived as number %d", l, e.Watermark, got[l])
			}
			got[l]++
		}
	}
	sends := map[amcast.NodeID]func(amcast.NodeID, []amcast.Envelope){}
	for _, l := range links {
		if sends[l.from] != nil {
			continue
		}
		send, err := d.Attach(l.from, receive)
		if err != nil {
			t.Fatal(err)
		}
		sends[l.from] = send
	}
	var wg sync.WaitGroup
	for i, l := range links {
		delay := d.delay(l.from, l.to)
		if delay >= time.Millisecond {
			t.Fatalf("link %v→%v delays %v, want sub-millisecond", l.from, l.to, delay)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < batches; k++ {
				// The due time is stamped before the send, so it is no
				// later than the one the link computes.
				due := time.Now().Add(delay).UnixNano()
				sends[l.from](l.to, []amcast.Envelope{{Kind: amcast.KindAck, TS: uint64(due),
					TSFrom: amcast.GroupID(i), Watermark: uint64(k)}})
				time.Sleep(300 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	d.Close() // delivers every accepted batch before it returns
	mu.Lock()
	defer mu.Unlock()
	if early != 0 {
		t.Fatalf("%d batches arrived before their due time", early)
	}
	for l, n := range got {
		if n != batches {
			t.Fatalf("link %d: %d of %d batches arrived", l, n, batches)
		}
	}
}

// TestDelayNetCloseLeavesNoTimerFds opens 24 links and closes the net:
// the process holds as many descriptors afterwards as before, so a
// link's wait takes nothing with it that Close does not give back.
func TestDelayNetCloseLeavesNoTimerFds(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	groups := []amcast.GroupID{1, 2, 3, 4}
	before := fds()
	d := newDelayNet(transport.NewInMemNet(), groups)
	var sends []func(amcast.NodeID, []amcast.Envelope)
	for _, g := range groups {
		send, err := d.Attach(amcast.GroupNode(g), func([]amcast.Envelope) {})
		if err != nil {
			t.Fatal(err)
		}
		sends = append(sends, send)
	}
	for i, send := range sends {
		for j, g := range groups {
			if i != j {
				send(amcast.GroupNode(g), []amcast.Envelope{{Kind: amcast.KindAck}})
			}
		}
	}
	// Each link's drainer makes its timer as it starts; give the 12
	// drainers a moment to have done so.
	time.Sleep(20 * time.Millisecond)
	during := fds()
	d.Close()
	after := fds()
	t.Logf("descriptors: %d before, %d with 12 links open, %d after Close", before, during, after)
	if after > before {
		t.Fatalf("%d descriptors after Close, %d before", after, before)
	}
}
