// Package sim is a deterministic discrete-event simulator. It substitutes
// for the paper's CloudLab testbed: protocol engines exchange envelopes
// over simulated FIFO links whose one-way latencies come from the WAN
// matrix (internal/wan), and nodes optionally model a serial processing
// cost per envelope, which is what produces the saturation behaviour of
// the throughput experiment (paper Figure 6).
//
// Determinism: events at equal times fire in scheduling order, and all
// randomness is injected by callers through seeded generators, so a run is
// a pure function of its configuration.
package sim

// Time is simulated time in microseconds since the start of the run.
type Time = int64

type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among simultaneous events
	fn  func()
}

// before is the queue's order: (at, seq), a total order because seq is
// unique, so which event fires next never depends on how the heap
// happens to be arranged.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events held by value: no interface
// boxing on push or pop.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = event{} // release the closure
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// Simulator is the event loop. The zero value is not usable; call New.
type Simulator struct {
	now    Time
	heap   eventHeap
	seq    uint64
	nSteps uint64
}

// New returns an empty simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Steps returns the number of events executed so far.
func (s *Simulator) Steps() uint64 { return s.nSteps }

// Schedule runs fn after the given delay (clamped to >= 0).
func (s *Simulator) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at the given absolute time (clamped to >= Now).
func (s *Simulator) ScheduleAt(at Time, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.heap.push(event{at: at, seq: s.seq, fn: fn})
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for len(s.heap) > 0 {
		s.step()
	}
}

// RunUntil executes events with time <= until, then sets the clock to
// until. Events scheduled beyond the horizon remain queued.
func (s *Simulator) RunUntil(until Time) {
	for len(s.heap) > 0 && s.heap[0].at <= until {
		s.step()
	}
	if s.now < until {
		s.now = until
	}
}

// RunFor advances the clock by d, executing due events.
func (s *Simulator) RunFor(d Time) { s.RunUntil(s.now + d) }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.heap) }

func (s *Simulator) step() {
	e := s.heap.pop()
	s.now = e.at
	s.nSteps++
	e.fn()
}
