package chaos

import (
	"bytes"
	"fmt"

	"flexcast/amcast"
	"flexcast/internal/durable"
	"flexcast/internal/metrics"
	"flexcast/internal/sim"
)

// node runs one group's engine under crash/recovery: it keeps a periodic
// state snapshot as simulated stable storage plus a write-ahead log of
// the inputs applied since, mirroring how a real group server would
// persist its state (internal/smr persists the input sequence in the
// Paxos log instead; §4.4). On recovery the engine is restored from the
// snapshot and the WAL is replayed with outputs suppressed — they were
// already transmitted before the crash. A node whose schedule has no
// crash windows keeps neither: nothing will ever recover it.
//
// In durable mode (Options.Durable) the in-memory model is replaced by
// the real backend: inputs run through a durable.Engine writing an
// on-disk WAL and snapshot files, Crash abandons those files exactly as
// kill -9 would (optionally tearing the WAL tail mid-record), and
// Recover rebuilds a fresh engine from the directory, auditing the
// recovered state against the crashed engine's final state.
type node struct {
	id        amcast.NodeID
	eng       amcast.SnapshotEngine
	net       *sim.Network
	onDeliver func(d amcast.Delivery) error
	fail      func(err error)
	// traffic counts what the group received (the schedule's send hook)
	// and delivered.
	traffic metrics.NodeCounters

	snapEvery   int
	recoverable bool // the schedule has crash windows: keep snap and wal
	snap        amcast.Snapshot
	wal         []amcast.Envelope
	// delsSince counts deliveries since the snapshot; recovery replay
	// must regenerate exactly this many (a cheap determinism audit that
	// catches incomplete Snapshot/Restore implementations).
	delsSince int
	down      bool

	// Durable-mode state: the backend wrapping eng, its directory, the
	// factory that rebuilds a fresh inner engine on recovery, and the
	// snapshot decoder. preCrash holds the crashed engine's final state
	// (canonical snapshot bytes) for the recovery equality audit;
	// tornPending records that the last crash left a torn WAL tail the
	// next recovery must discard.
	de          *durable.Engine
	dir         string
	rebuild     func() (amcast.SnapshotEngine, error)
	decode      func([]byte) (amcast.Snapshot, error)
	preCrash    []byte
	tornPending bool
	// rebind re-attaches the deployment's instrumentation to a recovered
	// engine (Instrumentation.Rebind; nil without instrumentation).
	rebind func(eng amcast.SnapshotEngine) error

	// bugEvery is the test-only ordering-bug hook (Options.BugFlipEvery).
	bugEvery int
	batches  int
}

func newNode(id amcast.NodeID, eng amcast.SnapshotEngine, net *sim.Network, snapEvery int, recoverable bool) *node {
	n := &node{id: id, eng: eng, net: net, snapEvery: snapEvery, recoverable: recoverable}
	if recoverable {
		n.snap = eng.Snapshot()
	}
	return n
}

// enableDurable switches the node to the real backend: the engine's
// inputs are logged to an on-disk WAL under dir, with snapshots on the
// node's cadence. The WAL is never fsynced — the fault model is process
// crash, where the page cache is the surviving image; tests inject torn
// tails explicitly.
func (n *node) enableDurable(dir string, rebuild func() (amcast.SnapshotEngine, error), decode func([]byte) (amcast.Snapshot, error)) error {
	de, err := durable.Wrap(n.eng, durable.Options{
		Dir:           dir,
		SnapshotEvery: n.snapEvery,
		FsyncEvery:    -1,
		Decode:        decode,
	})
	if err != nil {
		return err
	}
	n.de = de
	n.dir = dir
	n.rebuild = rebuild
	n.decode = decode
	return nil
}

// HandleEnvelope implements sim.Handler.
func (n *node) HandleEnvelope(env amcast.Envelope) {
	if n.down {
		// The network parks traffic for crashed nodes; reaching here
		// would mean the crash/restart bookkeeping is out of sync.
		n.fail(fmt.Errorf("chaos: envelope handed to crashed node %s", n.id))
		return
	}
	var outs []amcast.Output
	var dels []amcast.Delivery
	if n.de != nil {
		outs = n.de.OnEnvelope(env)
		dels = n.de.TakeDeliveries()
		if err := n.de.Err(); err != nil {
			n.fail(fmt.Errorf("chaos: durable backend of %s: %w", n.id, err))
		}
	} else {
		if n.recoverable {
			n.wal = append(n.wal, env)
		}
		outs = n.eng.OnEnvelope(env)
		dels = n.eng.TakeDeliveries()
	}
	for _, o := range outs {
		n.net.Send(n.id, o.To, o.Env)
	}
	if n.bugEvery > 0 && len(dels) >= 2 {
		n.batches++
		if n.batches%n.bugEvery == 0 {
			dels[0], dels[1] = dels[1], dels[0]
		}
	}
	for _, d := range dels {
		n.delsSince++
		n.traffic.Delivered++
		if err := n.onDeliver(d); err != nil {
			n.fail(err)
		}
		if d.Msg.Sender.IsClient() {
			n.net.Send(n.id, d.Msg.Sender, amcast.ReplyFor(n.id, d))
		}
	}
	// The durable backend snapshots and rotates on its own cadence.
	if n.de == nil && n.recoverable && len(n.wal) >= n.snapEvery {
		n.snap = n.eng.Snapshot()
		n.wal = n.wal[:0]
		n.delsSince = 0
	}
}

// marshalState captures an engine's state as canonical snapshot bytes —
// the durable-mode recovery equality audit's fingerprint.
func marshalState(eng amcast.SnapshotEngine) ([]byte, error) {
	bs, ok := eng.Snapshot().(amcast.BinarySnapshot)
	if !ok {
		return nil, fmt.Errorf("chaos: engine %T snapshot has no binary form", eng)
	}
	return bs.MarshalBinary()
}

// Crash drops the node's volatile state. The caller also crashes the
// node on the network so inbound traffic parks. In durable mode the
// final state is fingerprinted first (the engine is quiescent between
// simulator events), then the backend is closed before the directory is
// torn or recovered: appends already sit in the page cache — the crash
// image — and Close waits for the persist job in flight, so the image
// is a finished directory whose replay the snapshot cadence bounds
// (internal/durable's own crash test covers the unfinished ones).
func (n *node) Crash() {
	n.down = true
	if n.de == nil {
		return
	}
	if data, err := marshalState(n.eng); err != nil {
		n.fail(err)
	} else {
		n.preCrash = data
	}
	if err := n.de.Close(); err != nil {
		n.fail(fmt.Errorf("chaos: durable backend of %s: %w", n.id, err))
	}
}

// TearTail appends a partial record to the node's abandoned WAL — the
// torn tail of a crash mid-append. The next Recover must discard it.
func (n *node) TearTail() error {
	if n.dir == "" {
		return fmt.Errorf("chaos: torn WAL tail on non-durable node %s", n.id)
	}
	if _, err := durable.TearTail(n.dir, nil); err != nil {
		return err
	}
	n.tornPending = true
	return nil
}

// Recover rebuilds the engine from stable storage: restore the last
// snapshot, then replay the write-ahead log. Outputs and deliveries
// regenerated by the replay are suppressed — determinism guarantees they
// are byte-identical to what the pre-crash engine already sent and
// recorded, and the replay verifies the delivery count as a cross-check.
// In durable mode a completely fresh engine is rebuilt from the on-disk
// image instead, with three audits: a torn tail injected at crash time
// must be detected and discarded, the replay length must stay within
// the snapshot cadence, and the recovered state must equal the crashed
// engine's final state byte for byte.
func (n *node) Recover() error {
	if !n.down {
		return fmt.Errorf("chaos: recover of live node %s", n.id)
	}
	n.down = false
	if n.de != nil {
		return n.recoverDurable()
	}
	if err := n.eng.Restore(n.snap); err != nil {
		return err
	}
	n.eng.TakeDeliveries() // restore resets delivery state; start drained
	replayed := 0
	for _, env := range n.wal {
		n.eng.OnEnvelope(env)
		replayed += len(n.eng.TakeDeliveries())
	}
	if replayed != n.delsSince {
		return fmt.Errorf("chaos: recovery of %s diverged: WAL replay produced %d deliveries, pre-crash run had %d",
			n.id, replayed, n.delsSince)
	}
	return nil
}

func (n *node) recoverDurable() error {
	fresh, err := n.rebuild()
	if err != nil {
		return err
	}
	de, err := durable.Wrap(fresh, durable.Options{
		Dir:           n.dir,
		SnapshotEvery: n.snapEvery,
		FsyncEvery:    -1,
		Decode:        n.decode,
	})
	if err != nil {
		return err
	}
	st := de.Recovery()
	if n.tornPending && st.TornTailBytes == 0 {
		return fmt.Errorf("chaos: torn WAL tail injected at %s but recovery discarded nothing", n.id)
	}
	n.tornPending = false
	if n.snapEvery > 0 && st.ReplayedEnvelopes > n.snapEvery {
		return fmt.Errorf("chaos: recovery of %s replayed %d envelopes against a snapshot cadence of %d — snapshot age does not bound recovery",
			n.id, st.ReplayedEnvelopes, n.snapEvery)
	}
	got, err := marshalState(fresh)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, n.preCrash) {
		return fmt.Errorf("chaos: recovery of %s diverged from the crashed engine's final state (%d vs %d snapshot bytes)",
			n.id, len(got), len(n.preCrash))
	}
	n.eng = fresh
	n.de = de
	n.delsSince = 0
	if n.rebind != nil {
		return n.rebind(fresh)
	}
	return nil
}

// closeDurable releases the backend at the end of a schedule, returning
// its latched I/O error, if any.
func (n *node) closeDurable() error {
	if n.de == nil {
		return nil
	}
	if n.down {
		return nil // crashed at quiescence; already closed
	}
	return n.de.Close()
}
