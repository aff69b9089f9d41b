package history

import (
	"bytes"
	"reflect"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

func roundTrip(t *testing.T, h *History) *History {
	t.Helper()
	data := h.AppendBinary(nil)
	r := codec.NewReader(data)
	dec := Decode(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	hn, he := h.Snapshot()
	dn, de := dec.Snapshot()
	if dec.LastDelivered() != h.LastDelivered() || !reflect.DeepEqual(hn, dn) || !reflect.DeepEqual(he, de) {
		t.Fatal("decoded history differs from original")
	}
	if again := dec.AppendBinary(nil); !bytes.Equal(data, again) {
		t.Fatal("re-encoded history differs from original encoding")
	}
	return dec
}

// TestCodecRoundTrip covers the binary codec across the structure's
// life cycle: growth, placeholder materialization, pruning (free slots
// and the compacted log must survive encoding) and slot reuse.
func TestCodecRoundTrip(t *testing.T) {
	h := New()
	roundTrip(t, h) // empty

	for i := uint64(1); i <= 8; i++ {
		h.AppendDelivered(Node{ID: amcast.MsgID(i), Dst: []amcast.GroupID{1, amcast.GroupID(i % 3)}})
	}
	h.AddEdge(100, 3) // placeholder endpoint
	roundTrip(t, h)

	h.PruneBefore(6)
	dec := roundTrip(t, h) // free slots in the arena
	if dec.Len() != h.Len() || dec.LogLen() != h.LogLen() {
		t.Fatalf("decoded sizes %d/%d != %d/%d", dec.Len(), dec.LogLen(), h.Len(), h.LogLen())
	}

	h.AppendDelivered(Node{ID: 9, Dst: []amcast.GroupID{1, 2}}) // reuses a freed slot
	dec = roundTrip(t, h)

	// The decoded history must behave identically: same diffs, same
	// reachability.
	d1, _ := h.DiffSince(0)
	d2, _ := dec.DiffSince(0)
	if (d1 == nil) != (d2 == nil) {
		t.Fatal("decoded history produced a different diff")
	}
	if d1 != nil && (len(d1.Nodes) != len(d2.Nodes) || len(d1.Edges) != len(d2.Edges)) {
		t.Fatalf("decoded diff %d nodes/%d edges, want %d/%d",
			len(d2.Nodes), len(d2.Edges), len(d1.Nodes), len(d1.Edges))
	}
	if !dec.DependsOn(9, 6) || h.DependsOn(8, 6) != dec.DependsOn(8, 6) {
		t.Fatal("decoded history disagrees on reachability")
	}
	if err := dec.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
}
