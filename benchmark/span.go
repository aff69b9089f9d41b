package main

import "time"

// A span is one call into a layer as the ledger pump saw it: which
// layer, when it started and ended (nanoseconds on the recorder's
// monotonic clock), the span that was open when it began, the id of the
// message the call carried (for a batch, its first envelope's) and the
// bytes it moved. Spans stay in memory for the whole run and are folded
// once, at the end.
type span struct {
	start, end int64
	msg        uint64
	parent     int32 // index into recorder.spans; noParent at the root
	bytes      uint32
	layer      layerID
}

const noParent int32 = -1

// layerID names the layer boundary a span was recorded at; one per
// row of the ledger.
type layerID uint8

const (
	layGtpccNext layerID = iota
	layGtpccEncode
	layCodecEncode
	layCodecDecode
	layDurable
	layStore
	layEngine
	layHistoryMerge
	layHistoryPrune
	layStoreRead
	layStoreFeed
	layStoreSnapshot
	numLayers
)

var layerNames = [numLayers]string{
	layGtpccNext:     "gtpcc.next",
	layGtpccEncode:   "gtpcc.encode",
	layCodecEncode:   "codec.encode",
	layCodecDecode:   "codec.decode",
	layDurable:       "durable",
	layStore:         "store",
	layEngine:        "engine",
	layHistoryMerge:  "history.merge",
	layHistoryPrune:  "history.prune",
	layStoreRead:     "store.read",
	layStoreFeed:     "store.feed",
	layStoreSnapshot: "store.snapshot",
}

// recorder collects spans from one goroutine. The open-span stack makes
// every new span a child of the innermost span still open, which is
// exactly the call nesting of a single-threaded pump. A nil recorder
// records nothing: the undecorated reference run.
type recorder struct {
	base  time.Time
	spans []span
	open  []int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its handle for end.
func (r *recorder) begin(l layerID, msg uint64) int32 {
	if r == nil {
		return noParent
	}
	parent := noParent
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{layer: l, msg: msg, parent: parent, start: r.now()})
	r.open = append(r.open, idx)
	return idx
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(idx int32, bytes int) {
	if r == nil {
		return
	}
	s := &r.spans[idx]
	s.end = r.now()
	s.bytes = uint32(bytes)
	r.open = r.open[:len(r.open)-1]
}

// layerTotals is one layer's fold: how often it was entered, how long
// its spans lasted, how much of that no child span accounts for, and the
// bytes its spans carried.
type layerTotals struct {
	calls  uint64
	durNs  int64
	selfNs int64
	bytes  uint64
}

// fold computes every span's self time — its duration minus the union
// of the intervals its direct children cover, clipped to the span — and
// sums by layer. Spans must be in start order, which is the order the
// recorder appends them in: a child then only ever extends the covered
// stretch of its parent to the right.
func fold(spans []span) [numLayers]layerTotals {
	covered := make([]int64, len(spans))   // per span: length of the union of its children so far
	coveredTo := make([]int64, len(spans)) // per span: where that union ends
	for i := range spans {
		s := &spans[i]
		coveredTo[i] = s.start
		if s.parent == noParent {
			continue
		}
		p := &spans[s.parent]
		lo, hi := s.start, s.end
		if lo < coveredTo[s.parent] {
			lo = coveredTo[s.parent]
		}
		if hi > p.end {
			hi = p.end
		}
		if hi > lo {
			covered[s.parent] += hi - lo
			coveredTo[s.parent] = hi
		}
	}
	var out [numLayers]layerTotals
	for i := range spans {
		s := &spans[i]
		t := &out[s.layer]
		t.calls++
		t.durNs += s.end - s.start
		t.selfNs += s.end - s.start - covered[i]
		t.bytes += uint64(s.bytes)
	}
	return out
}
