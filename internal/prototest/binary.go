package prototest

import (
	"bytes"
	"testing"

	"flexcast/amcast"
	"flexcast/internal/durable"
)

// CheckBinarySnapshot audits the amcast.BinarySnapshot contract on a
// (typically mid-run, richly populated) engine: the snapshot must
// marshal canonically (same bytes twice), decode, restore into a fresh
// engine, and re-marshal from the restored engine to the identical
// bytes — proving the encoding captures the complete state and nothing
// else. Returns the canonical encoding for callers that want to stash
// or corrupt it.
func CheckBinarySnapshot(t *testing.T, eng, fresh amcast.SnapshotEngine, decode func([]byte) (amcast.Snapshot, error)) []byte {
	t.Helper()
	snap := eng.Snapshot()
	data := snapshotBytes(t, snap)
	if again := snapshotBytes(t, snap); !bytes.Equal(data, again) {
		t.Fatalf("prototest: snapshot encoding is not canonical: %d vs %d bytes differ", len(data), len(again))
	}
	dec, err := decode(data)
	if err != nil {
		t.Fatalf("prototest: decode snapshot: %v", err)
	}
	if dec.SnapshotGroup() != snap.SnapshotGroup() {
		t.Fatalf("prototest: decoded snapshot group %d, want %d", dec.SnapshotGroup(), snap.SnapshotGroup())
	}
	if err := fresh.Restore(dec); err != nil {
		t.Fatalf("prototest: restore decoded snapshot: %v", err)
	}
	if data2 := snapshotBytes(t, fresh.Snapshot()); !bytes.Equal(data, data2) {
		t.Fatalf("prototest: group %d decode+restore+re-marshal diverged: %d bytes vs %d — the codec misses state",
			snap.SnapshotGroup(), len(data), len(data2))
	}
	return data
}

// snapshotBytes returns a snapshot's canonical encoding: an engine's
// state as bytes.
func snapshotBytes(t *testing.T, snap amcast.Snapshot) []byte {
	t.Helper()
	data, err := durable.Canonical(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
