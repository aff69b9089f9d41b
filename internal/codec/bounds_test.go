package codec

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"flexcast/amcast"
)

// raceEnabled is prototest.RaceEnabled, which this package cannot import
// (prototest depends on it): allocation budgets are measured without -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// hostileFrames claim far more elements than their bytes can hold.
var hostileFrames = map[string][]byte{
	// An ACK (from 1, message 1 from sender 1, no flags, no destinations)
	// whose history claims 4 194 304 nodes — maxCount — in 10 bytes.
	"ack-4M-nodes": {byte(amcast.KindAck), 1, 1, 1, 0, 0, 0x80, 0x80, 0x80, 0x02},
	// A batch frame claiming 65 536 envelopes — MaxBatchEnvelopes — in 4 bytes.
	"batch-64k": {BatchKind, 0x80, 0x80, 0x04},
}

// allocBytes reports the bytes f allocates: the least of ten calls, so
// that what the runtime allocates for itself meanwhile does not count.
func allocBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 10; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestAllocBudgetHostileCounts: the decoder checks every count
// against the bytes left before allocating for it, so a frame is refused
// at a cost proportional to its own length, not to the counts it claims.
func TestAllocBudgetHostileCounts(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	for name, frame := range hostileFrames {
		var err error
		n := allocBytes(func() { _, err = DecodeFrame(frame) })
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		// Formatting the error is all the refusal allocates (a few hundred
		// bytes); the claimed counts would take 134 MB and 12 MB.
		if limit := uint64(256 * len(frame)); n > limit {
			t.Fatalf("%s: refusing a %d-byte frame allocated %d bytes, want ≤ %d (%v)", name, len(frame), n, limit, err)
		}
	}
}

// TestCountsBoundedByBytesLeft probes every bounded count one element
// past what the frame holds: each must be refused.
func TestCountsBoundedByBytesLeft(t *testing.T) {
	base := func(kind amcast.Kind) []byte { return []byte{byte(kind), 1, 1, 1, 0} } // kind, from, id, sender, flags
	cases := map[string][]byte{
		"destinations": append(base(amcast.KindTS), 3, 1, 2),                           // 3 groups, 2 bytes
		"hist nodes":   append(base(amcast.KindNotif), 0, 2, 1, 0),                     // 2 nodes, 2 bytes
		"hist edges":   append(base(amcast.KindNotif), 0, 0, 2, 1, 2, 1),               // 2 edges, 3 bytes
		"notif pairs":  append(base(amcast.KindAck), 0, 0, 0, 1, 1, 2),                 // 1 pair, 2 bytes
		"ack covers":   append(base(amcast.KindAck), 0, 0, 0, 0, 2, 1, 1, 1),           // 2 covers, 3 bytes
		"batch":        {BatchKind, 3, 1, byte(amcast.KindTS), 1, byte(amcast.KindTS)}, // 3 entries, 4 bytes
	}
	for name, frame := range cases {
		if _, err := DecodeFrame(frame); err == nil {
			t.Fatalf("%s: over-long count accepted: %x", name, frame)
		}
	}
}

// TestAllocBudgetDecodeHist: a history diff decodes into a constant number
// of allocations whatever its node count — the delta, its node and edge
// arrays and one slab for every destination set.
func TestAllocBudgetDecodeHist(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation budgets are measured without -race")
	}
	frame := func(nodes int) []byte {
		env := amcast.Envelope{Kind: amcast.KindAck, From: amcast.GroupNode(1), Msg: amcast.Message{
			ID: 99, Dst: []amcast.GroupID{1, 2},
		}, Hist: &amcast.HistDelta{}}
		for i := 0; i < nodes; i++ {
			id := amcast.NewMsgID(i%4, uint64(i))
			env.Hist.Nodes = append(env.Hist.Nodes, amcast.HistNode{ID: id, Dst: []amcast.GroupID{1, amcast.GroupID(2 + i%3), 9}})
			env.Hist.Edges = append(env.Hist.Edges, amcast.HistEdge{From: id, To: id + 1})
		}
		return Marshal(env)
	}
	allocs := func(buf []byte) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := Unmarshal(buf); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The message's destination set, the delta, its nodes, the slab, its edges.
	const want = 5
	for _, n := range []int{1, 20, 200} {
		if got := allocs(frame(n)); got != want {
			t.Fatalf("decoding an ACK whose delta has %d nodes allocates %v objects, want %d", n, got, want)
		}
	}
}

// appendBatchSized is the batch encoding as the parent wrote it: every
// envelope's length computed by Size first, then the envelope appended.
func appendBatchSized(buf []byte, envs []amcast.Envelope) []byte {
	buf = append(buf, BatchKind)
	buf = binary.AppendUvarint(buf, uint64(len(envs)))
	for _, env := range envs {
		buf = binary.AppendUvarint(buf, uint64(Size(env)))
		buf = Append(buf, env)
	}
	return buf
}

// TestAppendBatchMatchesSizedEncoding: encoding each envelope once into a
// widened length slot writes exactly the bytes sizing it first wrote,
// across length prefixes of one, two and three bytes and onto a buffer
// that already holds bytes.
func TestAppendBatchMatchesSizedEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var envs []amcast.Envelope
	for _, payload := range []int{0, 100, 126, 127, 128, 300, 16_370, 16_384, 40_000} {
		env := amcast.Envelope{Kind: amcast.KindRequest, From: amcast.ClientNode(1), Msg: amcast.Message{
			ID: 7, Sender: amcast.ClientNode(1), Dst: []amcast.GroupID{1, 2}, Payload: make([]byte, payload),
		}}
		envs = append(envs, env)
	}
	for i := 0; i < 200; i++ {
		envs = append(envs, randomEnvelope(rng))
	}
	for i := 1; i <= len(envs); i++ {
		batch := envs[:i]
		prefix := []byte("frame header")
		got := AppendBatch(append([]byte(nil), prefix...), batch)
		want := appendBatchSized(append([]byte(nil), prefix...), batch)
		if !bytes.Equal(got, want) {
			t.Fatalf("batch of %d: single-pass encoding differs from the sized one", i)
		}
		if len(got)-len(prefix) != BatchSize(batch) {
			t.Fatalf("batch of %d: BatchSize %d, encoded %d", i, BatchSize(batch), len(got)-len(prefix))
		}
	}
}
