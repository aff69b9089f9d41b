package amcast

// Snapshot is an opaque, self-contained record of one engine's protocol
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

// BinarySnapshot is a Snapshot held as its encoding — the seam the
// durable backend (internal/durable) persists through. Every engine in
// this repository writes its state one way, as a record:
//
//	record := body(m) ‖ instalment…
//
// body(m) is the state written against a mark m (DeltaEngine): the
// sections the engine rewrites every time, and the history as what
// changed since m. An instalment is what the engine's append-only logs —
// FlexCast's delivery tombstones, the store's order queue — gained since
// m. A checkpoint delta is body(mark) ‖ one instalment; a snapshot is
// body(zero mark) ‖ its journal, the instalments written by successive
// AppendSplit calls; MarshalBinary is the delta from the zero mark, and
// decoding any of them is the engine's ApplyDelta reader run on a reset
// engine (the producing package's UnmarshalSnapshot).
//
// A snapshot value holds its body's bytes and its logs by prefix, so
// taking one costs the body, however long the run. An engine without
// append-only logs writes empty instalments.
type BinarySnapshot interface {
	Snapshot
	// MarshalBinary returns the snapshot's canonical encoding: the body
	// and one instalment holding the logs whole. The same snapshot always
	// marshals to the same bytes (map iteration is sorted), so snapshot
	// files are reproducible and diffable.
	MarshalBinary() ([]byte, error)
	// AppendSplit appends the snapshot's body to body and, to tail, the
	// instalment holding what its logs gained since prev, and returns
	// both buffers. prev is nil or an earlier snapshot of the same engine
	// (or a decoded copy of one), of the same concrete type; it is only
	// read. A journal — the tails of successive calls, the first with
	// prev == nil — completes the body of the last call, and any earlier
	// call's body joined with the journal as it stood after that call.
	// An instalment carries what prev's journal cannot supply, no more:
	// log entries retired since stay behind in the journal as dead weight
	// the reader skips, so a journal is not canonical; MarshalBinary is.
	AppendSplit(body, tail []byte, prev Snapshot) ([]byte, []byte, error)
}

// JoinSnapshot assembles a snapshot encoding from a body and a journal.
func JoinSnapshot(body, tail []byte) []byte {
	return append(body[:len(body):len(body)], tail...)
}

// WholeSnapshot is the BinarySnapshot of an engine that writes its whole
// state against every mark: its record, whose instalments are empty. An
// engine embeds it in a type of its own, which its Restore asserts.
type WholeSnapshot struct {
	Group  GroupID
	Record []byte
}

// SnapshotGroup implements Snapshot.
func (s *WholeSnapshot) SnapshotGroup() GroupID { return s.Group }

// MarshalBinary implements BinarySnapshot.
func (s *WholeSnapshot) MarshalBinary() ([]byte, error) {
	return append([]byte(nil), s.Record...), nil
}

// AppendSplit implements BinarySnapshot.
func (s *WholeSnapshot) AppendSplit(body, tail []byte, _ Snapshot) ([]byte, []byte, error) {
	return append(body, s.Record...), tail, nil
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
// Snapshot() callers move nobody's. The nil Mark is the zero mark, the
// empty state every engine starts from.
type Mark any

// DeltaEngine is a SnapshotEngine that writes its state as a record
// (BinarySnapshot) against any mark of it and applies such records: the
// durable backend's checkpoint seam (internal/durable), which appends a
// delta where it would otherwise write a snapshot.
//
// Contract: for a mark m taken at state S, an engine in state S (restored
// from a snapshot of it, or replayed to it) that applies the record
// AppendDelta writes against m at a later state T is in state T, to the
// byte of every snapshot encoding. Against the zero mark the record is
// the state's MarshalBinary, which a reset engine applies.
type DeltaEngine interface {
	SnapshotEngine
	// Mark returns a mark of the current state, or nil when the engine
	// cannot write deltas after all (a wrapper over an engine that
	// cannot).
	Mark() Mark
	// AppendDelta appends the body of the record written against since —
	// nil, or a mark of this engine taken since its last Restore or
	// ApplyDelta — to body, and its one instalment to tail; the record is
	// the two joined.
	AppendDelta(body, tail []byte, since Mark) ([]byte, []byte, error)
	// ApplyDelta moves the engine from the state a record was written
	// against to the state it was written at. It fails, leaving the
	// engine as it was, on a record that does not decode or that was
	// written against another state as far as the engine can tell.
	ApplyDelta(record []byte) error
}
