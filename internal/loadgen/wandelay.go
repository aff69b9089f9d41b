package loadgen

import (
	"sync"
	"time"

	"flexcast/amcast"
	"flexcast/internal/runtime"
	"flexcast/internal/wan"
)

// delayNet emulates WAN geography as a decorator over another transport
// (runtime.Net): every (sender, receiver) link delays its batches by the
// one-way latency between the endpoints' regions (wan.OneWayMicros — the
// paper's inter-region matrix), with per-link FIFO preserved. The "wan"
// transport is the in-memory net behind one of these, so the fig5-style
// WAN curves measure the protocols against real wall-clock latency
// instead of a zero-latency loopback.
//
// Each link is one goroutine draining an ordered queue, so a link can
// never reorder: items carry their due time (enqueue + the link's
// constant delay) and the drainer waits for each on its own linkTimer (a
// kernel-timed timerfd in the netpoller on Linux, closed with the link).
// Links are created lazily — a deployment only pays for the pairs that
// actually talk.
type delayNet struct {
	inner  runtime.Net
	groups []amcast.GroupID

	mu      sync.Mutex
	links   map[delayLinkKey]chan delayItem
	closed  bool
	stop    chan struct{}  // closed by Close: releases senders blocked on a full link
	sending sync.WaitGroup // sends past their closed check, not yet in their link
	wg      sync.WaitGroup // link drainers
}

type delayLinkKey struct{ from, to amcast.NodeID }

type delayItem struct {
	due  time.Time
	to   amcast.NodeID
	envs []amcast.Envelope
}

// delayLinkDepth bounds a link's in-flight queue in batches; a full
// queue blocks the sender, mirroring the backpressure of a full node
// queue.
const delayLinkDepth = 4096

func newDelayNet(inner runtime.Net, groups []amcast.GroupID) *delayNet {
	return &delayNet{inner: inner, groups: groups, links: make(map[delayLinkKey]chan delayItem), stop: make(chan struct{})}
}

// Attach attaches id to the inner transport and returns a send function
// that routes each batch through the delay queue of its link first.
func (d *delayNet) Attach(id amcast.NodeID, h func(envs []amcast.Envelope)) (func(to amcast.NodeID, envs []amcast.Envelope), error) {
	deliver, err := d.inner.Attach(id, h)
	if err != nil {
		return nil, err
	}
	return func(to amcast.NodeID, envs []amcast.Envelope) { d.send(id, to, envs, deliver) }, nil
}

// region maps a node onto one of the paper's 12 WAN regions. Groups map
// by id (wrapping when the deployment runs more groups than regions);
// a client process lives in its home group's region — the same
// home assignment the workload generator uses (newGen).
func (d *delayNet) region(id amcast.NodeID) amcast.GroupID {
	g := id.Group()
	if id.IsClient() {
		g = d.groups[int(id-amcast.ClientNode(0))%len(d.groups)]
	}
	return amcast.GroupID((int(g)-1)%wan.NumRegions) + 1
}

// delay returns the one-way latency of the (from, to) link.
func (d *delayNet) delay(from, to amcast.NodeID) time.Duration {
	ra, rb := d.region(from), d.region(to)
	if ra == rb {
		// Same region: the local client↔group half-RTT.
		return time.Duration(wan.LocalRTTMicros/2) * time.Microsecond
	}
	return time.Duration(wan.OneWayMicros(ra, rb)) * time.Microsecond
}

// send delays one batch by the link's one-way latency, then forwards it
// through deliver. The batcher only lends its send function the slice
// and this is the one sink that holds a batch past the call, so the
// delay queue keeps its own copy. A send racing Close either enters its
// link before Close shuts the links, and is delivered, or is dropped;
// no lock is held while it waits on a full link.
func (d *delayNet) send(from, to amcast.NodeID, envs []amcast.Envelope, deliver func(to amcast.NodeID, envs []amcast.Envelope)) {
	if len(envs) == 0 {
		return
	}
	key := delayLinkKey{from, to}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	link, ok := d.links[key]
	if !ok {
		link = make(chan delayItem, delayLinkDepth)
		d.links[key] = link
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			timer := newLinkTimer()
			defer timer.close()
			for item := range link {
				timer.wait(item.due)
				deliver(item.to, item.envs)
			}
		}()
	}
	d.sending.Add(1)
	d.mu.Unlock()
	defer d.sending.Done()
	select {
	case link <- delayItem{due: time.Now().Add(d.delay(from, to)), to: to, envs: append([]amcast.Envelope(nil), envs...)}:
	case <-d.stop:
	}
}

// Close stops every link drainer — queued batches still in flight are
// delivered first (the drainers finish their channels) — then closes the
// inner transport. Senders blocked on a full link are released and
// their batches dropped; a link is shut only once no send is on its way
// into it.
func (d *delayNet) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	links := d.links
	d.mu.Unlock()
	close(d.stop)
	d.sending.Wait()
	for _, l := range links {
		close(l)
	}
	d.wg.Wait()
	d.inner.Close()
}
