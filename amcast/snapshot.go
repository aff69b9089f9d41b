package amcast

// Snapshot is an opaque, self-contained copy of one engine's protocol
// state. Implementations are protocol-specific and private; the only
// shared operation is identifying the owning group, which lets runtimes
// sanity-check that a snapshot is restored into the right engine.
//
// A Snapshot shares no mutable state with the engine that produced it:
// the engine may keep running (and a restored engine may diverge) without
// affecting the snapshot. This is what allows a runtime to keep a
// periodic snapshot as simulated stable storage and restore it more than
// once while exploring different recovery schedules.
type Snapshot interface {
	// SnapshotGroup returns the group whose engine produced the snapshot.
	SnapshotGroup() GroupID
}

// BinarySnapshot is a Snapshot with a canonical byte serialization —
// the seam the durable backend (internal/durable) persists through.
// MarshalBinary must capture the complete snapshot: decoding the bytes
// with the producing package's UnmarshalSnapshot and restoring the
// result must be indistinguishable from restoring the original.
type BinarySnapshot interface {
	Snapshot
	// MarshalBinary returns the snapshot's canonical encoding. The same
	// snapshot always marshals to the same bytes (map iteration is
	// sorted), so snapshot files are reproducible and diffable.
	MarshalBinary() ([]byte, error)
}

// TailSnapshot is a BinarySnapshot whose canonical encoding is a body
// followed by an append-only tail: successive snapshots of one running
// engine have tails that extend one another (FlexCast's delivery
// tombstones, in delivery order), so a persister that already holds the
// first from bytes of the tail needs only the body and what was
// appended since. The seam sits on the snapshot value rather than on
// the engine because every engine wrapper forwards Snapshot(): no
// decorator can hide it.
type TailSnapshot interface {
	BinarySnapshot
	// MarshalSplit returns the body and the tail's bytes from offset
	// from on (0 <= from <= the tail's length). MarshalBinary() equals
	// JoinSnapshot(body, tail) for from == 0, and the body fixes the
	// tail's length, so joining it with any other tail fails to decode.
	MarshalSplit(from int) (body, tail []byte, err error)
}

// JoinSnapshot reassembles a canonical snapshot encoding from the body
// and the complete tail MarshalSplit produced.
func JoinSnapshot(body, tail []byte) []byte {
	return append(body[:len(body):len(body)], tail...)
}

// SnapshotEngine is an Engine whose full state can be captured and
// restored, enabling crash/recovery testing (internal/chaos) and
// state-transfer-based replica recovery. All three protocol engines in
// this repository implement it.
//
// Contract: Restore(Snapshot()) must leave the engine byte-equivalent to
// the engine that took the snapshot — given the same subsequent envelope
// sequence, the restored engine must produce the same outputs and
// deliveries. Restore discards all current state, including undrained
// deliveries.
type SnapshotEngine interface {
	Engine
	// Snapshot captures the engine's complete state.
	Snapshot() Snapshot
	// Restore replaces the engine's state with a snapshot previously
	// produced by a compatible engine for the same group. It fails on a
	// snapshot of the wrong concrete type or group.
	Restore(Snapshot) error
}
