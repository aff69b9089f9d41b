package store

import (
	"testing"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/core"
	"flexcast/internal/prototest"
)

// decodeExecCore composes the executor snapshot decoder over the
// FlexCast engine decoder — the shape flexload and the durable backend
// use in execute mode.
func decodeExecCore(data []byte) (amcast.Snapshot, error) {
	return UnmarshalSnapshot(data, core.UnmarshalSnapshot)
}

// TestExecutorSnapshotBinaryRoundTrip audits the combined engine+store
// binary snapshot codec over a mid-run gTPC-C workload: marshal →
// decode → restore → re-marshal must be byte-identical, and the decoded
// shard must digest identically to the live one.
func TestExecutorSnapshotBinaryRoundTrip(t *testing.T) {
	factory, route := flexcastFactory(t)
	dep := newExecDeployment(t, factory, nil)
	prototest.RunRandom(t, prototest.RandomConfig{
		Groups:      testGroups,
		Clients:     3,
		Messages:    40,
		Route:       route,
		Factory:     dep.Factory,
		Seed:        17,
		Jitter:      3000,
		NextMessage: gtpccWorkload(testGroups, 17),
		OnEngines: func(engines map[amcast.GroupID]amcast.Engine) {
			for g, eng := range engines {
				ex := eng.(*Executor)
				fresh, err := NewExecutor(factory(g), Config{Warehouse: g}, true)
				if err != nil {
					t.Fatal(err)
				}
				prototest.CheckBinarySnapshot(t, ex, fresh, decodeExecCore)
				if a, b := ex.Digest(), fresh.Digest(); a != b {
					t.Fatalf("group %d: decoded shard digest %x != live %x", g, b[:8], a[:8])
				}
				if err := fresh.CheckMirror(); err != nil {
					t.Fatalf("group %d: restored mirror: %v", g, err)
				}
				if ex.Watermark() != fresh.Watermark() {
					t.Fatalf("group %d: decoded watermark %d != live %d", g, fresh.Watermark(), ex.Watermark())
				}
			}
		},
	})
}

// TestShardBinaryRoundTrip covers the shard codec directly, including
// pending orders and cross-warehouse sourcing state.
func TestShardBinaryRoundTrip(t *testing.T) {
	s := MustNew(Config{Warehouse: 3, Items: 50, Customers: 20, Seed: 9})
	// Mutate through the public Apply surface so the encoded state is a
	// reachable one (pending orders, debits, deliveries).
	msgs := gtpccWorkload([]amcast.GroupID{3, 4}, 9)
	for i := 0; i < 60; i++ {
		m := msgs(0, i, nil)
		s.Apply(amcast.Delivery{Group: 3, Seq: uint64(i), Msg: m}, nil)
	}
	data := s.AppendBinary(nil)
	r := codec.NewReader(data)
	dec := DecodeShard(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if a, b := s.Digest(), dec.Digest(); a != b {
		t.Fatalf("decoded shard digest %x != original %x", b[:8], a[:8])
	}
	if string(dec.AppendBinary(nil)) != string(data) {
		t.Fatal("re-encoded shard differs from original encoding")
	}
}
