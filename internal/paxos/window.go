package paxos

// instState is the acceptor and proposer state of one instance that is
// not yet delivered.
type instState struct {
	// promised is the highest ballot this acceptor accepted for the
	// instance; the promise in force is the larger of it and the
	// replica's floor.
	promised Ballot
	accepted Ballot
	// value is the accepted value and, once decided, the chosen one.
	value []byte
	// acks has bit p set once replica p accepted this replica's current
	// proposal (leader only).
	acks     uint64
	decided  bool
	inFlight bool
}

// window holds the instState of the instances from Decided() onward, in
// a ring: instance Decided()+k lives in slot (head+k) mod len(slots). It
// holds n instances — up to the highest one touched — and its length is
// the high-water mark of that span, not the length of the log. Every
// slot outside the held span is zero.
type window struct {
	slots []instState
	head  int
	n     int
}

// peek returns the state of the k-th instance of the window, or nil if
// the window does not reach it.
func (w *window) peek(k uint64) *instState {
	if k >= uint64(w.n) {
		return nil
	}
	return w.slot(int(k))
}

func (w *window) slot(k int) *instState { return &w.slots[(w.head+k)&(len(w.slots)-1)] }

// at returns the state of the k-th instance, extending the window to
// hold it. The pointer is valid until the window next grows or drops.
func (w *window) at(k uint64) *instState {
	if k >= uint64(w.n) {
		if k >= uint64(len(w.slots)) {
			w.grow(int(k) + 1)
		}
		w.n = int(k) + 1
	}
	return w.slot(int(k))
}

func (w *window) grow(need int) {
	size := 2 * len(w.slots)
	if size < 8 {
		size = 8
	}
	for size < need {
		size *= 2
	}
	slots := make([]instState, size)
	for k := 0; k < w.n; k++ {
		slots[k] = *w.slot(k)
	}
	w.slots, w.head = slots, 0
}

// drop removes the window's first instance, zeroing its slot so the
// value it held can be collected.
func (w *window) drop() {
	*w.slot(0) = instState{}
	w.head = (w.head + 1) & (len(w.slots) - 1)
	w.n--
}
