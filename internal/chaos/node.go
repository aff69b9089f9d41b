package chaos

import (
	"bytes"
	"fmt"

	"flexcast/amcast"
	"flexcast/internal/durable"
	"flexcast/internal/metrics"
	"flexcast/internal/runtime"
	"flexcast/internal/sim"
)

// node hosts one group's engine on the simulator under the production
// node runtime (runtime.NewStepped): each handoff is one Submit plus
// one Step, with the batcher's sends looped onto the simulated network.
// What node adds is crash and recovery. A group its schedule crashes
// persists through the real backend (persist): inputs run through a
// durable.Engine writing an on-disk WAL and snapshot files, Crash
// abandons those files exactly as kill -9 would (optionally tearing the
// WAL tail mid-record), and Recover rebuilds a fresh engine from the
// directory, auditing the recovered state against the crashed engine's
// final state. A group its schedule never crashes keeps nothing.
type node struct {
	id        amcast.NodeID
	eng       amcast.SnapshotEngine
	net       *sim.Network
	onDeliver func(d amcast.Delivery) error
	fail      func(err error)
	// traffic counts what the group received (the schedule's send hook)
	// and delivered.
	traffic metrics.NodeCounters

	// rt steps the engine (the durable backend once persisted) with buf
	// as its chunk buffer; dels collects a step's deliveries.
	rt   *runtime.Node
	buf  []amcast.Envelope
	dels []amcast.Delivery

	snapEvery int
	down      bool

	// Persistence state (nil de: the schedule never crashes the group):
	// the backend wrapping eng, its directory, the factory that rebuilds
	// a fresh inner engine on recovery, and the snapshot decoder.
	// preCrash holds the crashed engine's final state (canonical snapshot
	// bytes) for the recovery equality audit; tornPending records that
	// the last crash left a torn WAL tail the next recovery must discard.
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

func newNode(id amcast.NodeID, eng amcast.SnapshotEngine, net *sim.Network, snapEvery int) *node {
	n := &node{id: id, eng: eng, net: net, snapEvery: snapEvery}
	n.host()
	return n
}

// host builds the runtime node over the current engine. Its queue and
// batcher are empty between simulator events: nothing carries over.
func (n *node) host() {
	var eng amcast.Engine = n.eng
	if n.de != nil {
		eng = n.de
	}
	n.rt = runtime.NewStepped(eng, n.send, runtime.Config{
		OnDeliver: func(d amcast.Delivery) { n.dels = append(n.dels, d) },
	})
}

// send transmits a batch as one simulated send per envelope, in order.
func (n *node) send(to amcast.NodeID, envs []amcast.Envelope) {
	for _, env := range envs {
		n.net.Send(n.id, to, env)
	}
}

// persist puts the node behind the real backend: the engine's inputs
// are logged to an on-disk WAL under dir, with checkpoints on the
// node's cadence. The WAL is never fsynced — the fault model is process
// crash, where the page cache is the surviving image; Crash tears tails
// explicitly.
func (n *node) persist(dir string, rebuild func() (amcast.SnapshotEngine, error), decode func([]byte) (amcast.Snapshot, error)) error {
	n.dir, n.rebuild, n.decode = dir, rebuild, decode
	de, err := n.wrap(n.eng)
	if err != nil {
		return err
	}
	n.de = de
	n.host()
	return nil
}

// wrap puts eng behind the backend in the node's directory.
func (n *node) wrap(eng amcast.SnapshotEngine) (*durable.Engine, error) {
	return durable.Wrap(eng, durable.Options{Dir: n.dir, SnapshotEvery: n.snapEvery, FsyncEvery: -1, Decode: n.decode})
}

// HandleEnvelope implements sim.Handler: one handoff is one chunk.
func (n *node) HandleEnvelope(env amcast.Envelope) {
	if n.down {
		// The network parks traffic for crashed nodes; reaching here
		// would mean the crash/restart bookkeeping is out of sync.
		n.fail(fmt.Errorf("chaos: envelope handed to crashed node %s", n.id))
		return
	}
	n.rt.Submit([]amcast.Envelope{env})
	n.buf = n.rt.Step(n.buf)
	if n.de != nil && n.de.Err() != nil {
		n.fail(fmt.Errorf("chaos: durable backend of %s: %w", n.id, n.de.Err()))
	}
	dels := n.dels
	if n.bugEvery > 0 && len(dels) >= 2 {
		n.batches++
		if n.batches%n.bugEvery == 0 {
			dels[0], dels[1] = dels[1], dels[0]
		}
	}
	for _, d := range dels {
		n.traffic.Delivered++
		if err := n.onDeliver(d); err != nil {
			n.fail(err)
		}
	}
	n.dels = dels[:0]
}

// marshalState captures an engine's state as canonical snapshot bytes —
// the recovery equality audit's fingerprint.
func marshalState(eng amcast.SnapshotEngine) ([]byte, error) {
	bs, ok := eng.Snapshot().(amcast.BinarySnapshot)
	if !ok {
		return nil, fmt.Errorf("chaos: engine %T snapshot has no binary form", eng)
	}
	return bs.MarshalBinary()
}

// Crash drops the node's volatile state. The caller also crashes the
// node on the network so inbound traffic parks. The final state is
// fingerprinted first (the engine is quiescent between simulator
// events), then the backend is closed before the directory is torn or
// recovered: appends already sit in the page cache — the crash image —
// and Close waits for the persist job in flight, so the image is a
// finished directory whose replay the snapshot cadence bounds
// (internal/durable's own crash test covers the unfinished ones).
func (n *node) Crash() {
	n.down = true
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
	if _, err := durable.TearTail(n.dir, nil); err != nil {
		return err
	}
	n.tornPending = true
	return nil
}

// Recover rebuilds a completely fresh engine from the on-disk image,
// with three audits: a torn tail injected at crash time must be
// detected and discarded, the replay length must stay within the
// snapshot cadence, and the recovered state must equal the crashed
// engine's final state byte for byte. Outputs the replay regenerates are
// suppressed: they were already transmitted. A recovery that fails an
// audit is closed and the node stays down: neither the rejected engine
// nor the crashed one is stepped again.
func (n *node) Recover() error {
	if !n.down {
		return fmt.Errorf("chaos: recover of live node %s", n.id)
	}
	fresh, err := n.rebuild()
	if err != nil {
		return err
	}
	de, err := n.wrap(fresh)
	if err != nil {
		return err
	}
	if err := n.auditRecovery(fresh, de.Recovery()); err != nil {
		de.Close()
		return err
	}
	n.down = false
	n.eng = fresh
	n.de = de
	n.host()
	if n.rebind != nil {
		return n.rebind(fresh)
	}
	return nil
}

// auditRecovery runs Recover's three audits on a recovered engine.
func (n *node) auditRecovery(fresh amcast.SnapshotEngine, st durable.RecoveryStats) error {
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
	return nil
}
