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

// TailSnapshot is a BinarySnapshot part of whose state is an append-only
// log — FlexCast's delivery tombstones, the store's order queue — that a
// persister should write once instead of once per snapshot. Its encoding
// is a body, rewritten every time, followed by a tail holding log
// entries, and the tail may be handed out in instalments:
//
//   - A journal is the concatenation of the tails of successive
//     AppendSplit calls on snapshots of one running engine, the first
//     with prev == nil, each later one with prev = the snapshot of the
//     call before (or a decoded copy of it: what the persister holds is
//     its own knowledge, not the engine's, since an engine's Snapshot()
//     is also taken by callers that persist nothing).
//   - The producing package's UnmarshalSnapshot accepts body ‖ journal
//     for the body of the last call, and for the body of any earlier call
//     joined with the journal as it stood after that call — a prefix.
//   - An instalment carries what the snapshot needs and prev's journal
//     cannot supply, no more: entries created and retired between two
//     calls are never written, entries retired later stay behind in the
//     journal as dead weight the decoder skips. A journal is therefore
//     not canonical; MarshalBinary() — one instalment, prev == nil, live
//     entries only — is, and decoding any valid journal and marshalling
//     the result yields exactly it.
//
// Implementations frame their own instalments (an implementation that
// embeds another TailSnapshot nests the inner instalment inside its
// own); the persister treats bodies and tails as opaque bytes. The seam
// sits on the snapshot value rather than on the engine because every
// engine wrapper forwards Snapshot(): no decorator can hide it.
type TailSnapshot interface {
	BinarySnapshot
	// AppendSplit appends the snapshot's body to body and the instalment
	// of its tail that follows prev's journal to tail, and returns both
	// buffers. prev is nil or an earlier snapshot of the same engine, of
	// the same concrete type; it is only read.
	AppendSplit(body, tail []byte, prev Snapshot) ([]byte, []byte, error)
}

// JoinSnapshot assembles a snapshot encoding from a body and a journal.
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

// Mark identifies one state of a DeltaEngine, for a later AppendDelta to
// write what changed since. Taking a mark changes nothing in the engine:
// its holder keeps it, any number of holders keep their own, and
// Snapshot() callers move nobody's.
type Mark any

// DeltaEngine is a SnapshotEngine that can also write the difference
// between its current state and an earlier one, and apply such a
// difference: the durable backend's checkpoint seam (internal/durable),
// which appends a delta where it would otherwise write a snapshot.
//
// Contract: for a mark m taken at state S, an engine in state S (restored
// from a snapshot of it, or replayed to it) that applies
// AppendDelta(nil, m) of a later state T is in state T, to the byte of
// every snapshot encoding.
type DeltaEngine interface {
	SnapshotEngine
	// Mark returns a mark of the current state, or nil when the engine
	// cannot write deltas after all (a wrapper over an engine that
	// cannot).
	Mark() Mark
	// AppendDelta appends to buf the delta from the state marked since,
	// a mark of this engine taken since its last Restore or ApplyDelta,
	// to the current state.
	AppendDelta(buf []byte, since Mark) ([]byte, error)
	// ApplyDelta moves the engine from the state a delta was written
	// against to the state it was written at. It fails, leaving the
	// engine as it was, on a delta that does not decode or that was
	// written against another state as far as the engine can tell.
	ApplyDelta(delta []byte) error
}
