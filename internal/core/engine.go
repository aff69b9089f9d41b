// Package core implements the FlexCast protocol engine — the paper's
// primary contribution (§4, Algorithms 1-3). One Engine instance runs the
// protocol logic of one group on a complete-DAG overlay.
//
// Protocol recap:
//
//   - A client multicasts m by sending it to m's lca, the lowest-ranked
//     destination. The lca delivers immediately and propagates m (MSG) to
//     the remaining destinations together with a diff of its history
//     (Strategy a).
//   - A non-lca destination g queues m until (i) it has ACKs from every
//     ancestor destination other than the lca and from every notified
//     ancestor (Strategy b), and (ii) no undelivered message addressed to
//     g precedes m in g's history. On delivery it ACKs m to the
//     destinations ranked above it.
//   - Before forwarding m (or its ACK), a group sends NOTIF to
//     non-destination descendants that are ancestors of some destination
//     and to which it previously sent application traffic (Strategy c);
//     a notified group flushes its dependencies down the C-DAG by ACKing m
//     once it has no open dependencies, and notifies further groups
//     inductively.
//
// The deviations from the paper's pseudocode that any executable
// implementation must make are listed in DESIGN.md §4.
package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"flexcast/amcast"
	"flexcast/internal/history"
	"flexcast/internal/overlay"
)

// Config configures one FlexCast engine.
type Config struct {
	// Group is the group this engine serves.
	Group amcast.GroupID
	// Overlay is the shared C-DAG rank order.
	Overlay *overlay.CDAG
	// DisableGC turns off history pruning on flush deliveries; tests use
	// it to exercise unbounded histories.
	DisableGC bool
}

// notifState is the notifier-side record of the last NOTIF sent about
// one message to one notified group: the certification epoch used and
// the trafficSeq snapshot it certified (see Engine.trafficSeq).
type notifState struct {
	epoch uint64
	seq   uint64
}

// notifPut is one notifDoneLog entry: notifier's NOTIF about id accepted
// at epoch (≥ 1, and above every earlier put of the same two).
type notifPut struct {
	id       amcast.MsgID
	notifier amcast.GroupID
	epoch    uint64
}

// byGroup is a per-message collection keyed by group. Like pending's, it
// is a few entries long and searched linearly; unlike them it is kept
// sorted by group, so a snapshot copies it with one slices.Clone and
// encodes it as it stands.
type byGroup[V any] []groupEntry[V]

type groupEntry[V any] struct {
	g amcast.GroupID
	v V
}

// get returns g's value, the zero value when g has none.
func (es byGroup[V]) get(g amcast.GroupID) (v V) {
	for _, e := range es {
		if e.g == g {
			return e.v
		}
	}
	return v
}

// put sets g's value and returns the collection.
func (es byGroup[V]) put(g amcast.GroupID, v V) byGroup[V] {
	i := 0
	for i < len(es) && es[i].g < g {
		i++
	}
	if i < len(es) && es[i].g == g {
		es[i].v = v
		return es
	}
	return slices.Insert(es, i, groupEntry[V]{g, v})
}

// pending tracks protocol state for one not-yet-delivered message
// (Algorithm 1 lines 5-6: m.acks and m.notifList, plus the message body).
// The three collections are a few entries long — bounded by the number of
// groups — so they are unordered slices searched linearly, allocated on
// first use.
type pending struct {
	msg    amcast.Message
	hasMsg bool // the MSG/REQUEST envelope carrying the payload arrived
	queued bool
	// acks lists the groups whose ack for the message arrived.
	acks []amcast.GroupID
	// notif holds each known (notifier → notified) pair at the highest
	// certification epoch announced for it. Pairs, not a flat set: each
	// notifier's notification must be answered by a flush ack that
	// causally follows it (the notifier sends the NOTIF on the same
	// FIFO link as its earlier traffic), or a stale ack could hide
	// dependencies the notifier knows about. The epoch closes the
	// remaining window: a flush ack covering epoch e-1 cannot satisfy a
	// pair re-certified at epoch e (DESIGN.md §4 deviation 8).
	notif []amcast.NotifPair
	// notifAcks holds, per (notified group, notifier), the highest
	// certification epoch of the notifier's notifications the notified
	// group has flushed (learned from AckCovers on its acks).
	notifAcks []notifAck
}

// notifAck is one pending.notifAcks entry.
type notifAck struct {
	from, notifier amcast.GroupID
	epoch          uint64
}

// addNotif records a pair announcement, keeping the highest epoch.
func (p *pending) addNotif(pr amcast.NotifPair) {
	for i := range p.notif {
		if q := &p.notif[i]; q.Notifier == pr.Notifier && q.Notified == pr.Notified {
			q.Epoch = max(q.Epoch, pr.Epoch)
			return
		}
	}
	p.notif = append(p.notif, pr)
}

// addNotifAck records that from flushed notifier's notifications up to
// epoch, keeping the highest epoch.
func (p *pending) addNotifAck(from, notifier amcast.GroupID, epoch uint64) {
	for i := range p.notifAcks {
		if a := &p.notifAcks[i]; a.from == from && a.notifier == notifier {
			a.epoch = max(a.epoch, epoch)
			return
		}
	}
	p.notifAcks = append(p.notifAcks, notifAck{from: from, notifier: notifier, epoch: epoch})
}

// flushed reports the highest epoch of notifier's notifications that
// from has flushed, 0 if none.
func (p *pending) flushed(from, notifier amcast.GroupID) uint64 {
	for _, a := range p.notifAcks {
		if a.from == from && a.notifier == notifier {
			return a.epoch
		}
	}
	return 0
}

// pendingNotif is a deferred notification (Algorithm 2 line 16): the ACK
// answering notifier's NOTIF for msg is withheld until every open
// dependency in deps is delivered. One entry per (message, notifier,
// epoch) — a later notifier's (or a re-certifying epoch's) NOTIF
// snapshots its own, possibly larger, open set.
type pendingNotif struct {
	msg      amcast.Message
	notifier amcast.GroupID
	epoch    uint64
	deps     map[amcast.MsgID]bool
}

// Engine is the FlexCast state machine for one group. It implements
// amcast.Engine. Not safe for concurrent use; runtimes serialize access.
type Engine struct {
	cfg Config
	g   amcast.GroupID
	ov  *overlay.CDAG

	// ancestors is ov.Ancestors(g), the order reprocess scans queues in.
	ancestors []amcast.GroupID

	// hst holds the multi-destination messages only: a message addressed
	// to g alone is delivered on arrival and never becomes a node
	// (DESIGN.md §4 deviation 9). Its nodes carry the open and delivered
	// sets below as flags, which is what can-deliver's walk reads.
	hst *history.History
	// deliveredLog lists every message delivered here, in delivery order.
	// It doubles as deliveredInG and as the tombstone set that prevents
	// re-delivery after garbage collection, and it is append-only: a
	// snapshot takes it by prefix (capture), so a written entry is never
	// overwritten. delivered is its membership index, rebuilt from the
	// log on restore.
	deliveredLog []amcast.MsgID
	delivered    amcast.IDSet
	// open is the open-dependency set: messages present in hst, addressed
	// to g, not yet delivered (open-dependencies() in Algorithm 3).
	open map[amcast.MsgID]bool
	// queues holds the per-ancestor FIFO queues of undelivered application
	// messages, keyed by the message's lca (Algorithm 1 line 14); a queue
	// that empties is removed.
	queues map[amcast.GroupID][]amcast.MsgID
	// pend tracks acks/notifLists per in-flight message; entries are
	// created on first reference because an ACK can overtake its MSG on a
	// different link.
	pend map[amcast.MsgID]*pending
	// pendNotif holds notifications waiting for open dependencies.
	pendNotif []*pendingNotif
	// notifDone records, per message, the highest certification epoch
	// of each notifier's NOTIF this group already accepted (flushed or
	// deferred). A NOTIF at an epoch ≤ the accepted one is folded as a
	// duplicate; a higher epoch means the notifier has certified a
	// fresh edge since, and is processed anew with a fresh dependency
	// snapshot. Distinct notifiers are never folded against each other:
	// each snapshots its own dependency set — see the pending.notif
	// comment and DESIGN.md §4. The table only grows, so like the delivery
	// log it is an append-only log of the accepted (message, notifier,
	// epoch) puts, which a snapshot takes by prefix; the map is its index.
	notifDone    map[amcast.MsgID]byGroup[uint64]
	notifDoneLog []notifPut
	// trafficSeq[d] counts the history nodes addressed to d that have
	// entered this engine's history (merged diffs and local
	// deliveries). A NOTIF to d certifies the edges known at a given
	// count; when the count has advanced since the last NOTIF about a
	// message, the next NOTIF bumps its certification epoch so the
	// notified group cannot fold it — the targeted re-certification
	// that closes the fresh-request staircase ring (DESIGN.md §4
	// deviation 8). Monotone counters rather than history sizes: GC
	// pruning must not make the signal go backwards.
	trafficSeq map[amcast.GroupID]uint64
	// notifSent[id] holds, per notified group d, the notifier-side record
	// of the last NOTIF sent about id to d (epoch + trafficSeq snapshot).
	// Entries for a
	// message this group delivers are dropped at delivery (a
	// destination never notifies about a message after delivering it);
	// notified groups' entries share notifDone's lifecycle.
	notifSent map[amcast.MsgID]byGroup[notifState]
	// cursors tracks, per descendant, the prefix of the history already
	// sent (hst(h) in Algorithm 1 line 18, as a log cursor).
	cursors map[amcast.GroupID]history.Cursor

	deliveries []amcast.Delivery
	seq        uint64

	// counters for tests and debugging.
	nPruned int

	// hstImage is capture's encoding buffer: the snapshot's copy of the
	// history image is then allocated once, at its final size.
	hstImage []byte
}

var _ amcast.Engine = (*Engine)(nil)

var _ amcast.BatchStepper = (*Engine)(nil)

// New builds a FlexCast engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Overlay == nil {
		return nil, fmt.Errorf("core: nil overlay")
	}
	if !cfg.Overlay.Contains(cfg.Group) {
		return nil, fmt.Errorf("core: group %d not in overlay", cfg.Group)
	}
	return &Engine{
		cfg:        cfg,
		g:          cfg.Group,
		ov:         cfg.Overlay,
		ancestors:  cfg.Overlay.Ancestors(cfg.Group),
		hst:        history.New(),
		open:       make(map[amcast.MsgID]bool),
		queues:     make(map[amcast.GroupID][]amcast.MsgID),
		pend:       make(map[amcast.MsgID]*pending),
		notifDone:  make(map[amcast.MsgID]byGroup[uint64]),
		trafficSeq: make(map[amcast.GroupID]uint64),
		notifSent:  make(map[amcast.MsgID]byGroup[notifState]),
		cursors:    make(map[amcast.GroupID]history.Cursor),
	}, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Group implements amcast.Engine.
func (e *Engine) Group() amcast.GroupID { return e.g }

// TakeDeliveries implements amcast.Engine.
func (e *Engine) TakeDeliveries() []amcast.Delivery {
	d := e.deliveries
	e.deliveries = nil
	return d
}

// HistoryLen reports the number of live history nodes (tests, metrics).
func (e *Engine) HistoryLen() int { return e.hst.Len() }

// PrunedNodes reports how many history nodes GC removed so far.
func (e *Engine) PrunedNodes() int { return e.nPruned }

// QueuedMessages reports the total number of queued undelivered messages.
func (e *Engine) QueuedMessages() int {
	n := 0
	for _, q := range e.queues {
		n += len(q)
	}
	return n
}

// OnEnvelope implements amcast.Engine (Algorithm 2).
func (e *Engine) OnEnvelope(env amcast.Envelope) []amcast.Output {
	var outs []amcast.Output
	e.step(env, &outs)
	return outs
}

// BatchStep implements amcast.BatchStepper — the engine's batch fast
// path: every envelope's state updates (history merges, ack and
// notification bookkeeping, immediate lca deliveries) are applied in
// order, and the reprocess fixpoint — the dominant per-envelope cost,
// scanning ancestor queues and walking history dependencies — runs once
// for the whole batch instead of once per envelope. Deferring the
// fixpoint is protocol-equivalent to per-envelope processing: the
// deliverability conditions a message satisfies are exactly those it
// would satisfy had the batch arrived as individual envelopes processed
// by a momentarily busy server, and the acks the fixpoint emits simply
// carry consolidated history diffs. Deliveries and outputs remain a
// deterministic function of the batch sequence (what state machine
// replication requires); the per-envelope execution stays available
// through OnEnvelope and is what the simulator and chaos explorer run.
// TestBatchStepSafety validates chunked executions against the full
// multicast specification.
func (e *Engine) BatchStep(envs []amcast.Envelope) []amcast.Output {
	var outs []amcast.Output
	for _, env := range envs {
		e.apply(env, &outs)
	}
	e.reprocess(&outs)
	return outs
}

func (e *Engine) step(env amcast.Envelope, outs *[]amcast.Output) {
	e.apply(env, outs)
	e.reprocess(outs)
}

// apply performs one envelope's state updates without the trailing
// reprocess fixpoint.
func (e *Engine) apply(env amcast.Envelope, outs *[]amcast.Output) {
	switch env.Kind {
	case amcast.KindRequest:
		e.onRequest(env, outs)
	case amcast.KindMsg:
		e.onMsg(env, outs)
	case amcast.KindAck:
		e.onAck(env, outs)
	case amcast.KindNotif:
		e.onNotif(env, outs)
	}
}

// onRequest handles a client message entering the overlay at its lca
// (Algorithm 2 lines 1-2): the lca delivers immediately, imposing its
// order on all descendants.
func (e *Engine) onRequest(env amcast.Envelope, outs *[]amcast.Output) {
	m := env.Msg
	if len(m.Dst) == 0 || e.ov.Lca(m.Dst) != e.g || e.wasDelivered(m.ID) {
		return
	}
	e.deliver(m, outs)
}

// onMsg handles an application message propagated by its lca (Algorithm 2
// lines 3-6).
func (e *Engine) onMsg(env amcast.Envelope, outs *[]amcast.Output) {
	e.mergeHist(env.Hist)
	m := env.Msg
	if !m.HasDst(e.g) || e.wasDelivered(m.ID) {
		// Duplicate or misrouted: the history merge above is still useful.
		return
	}
	p := e.pending(m.ID)
	if !p.hasMsg {
		p.msg = m
		p.hasMsg = true
	}
	e.mergeNotifList(p, env.NotifList)
	if !p.queued {
		lca := e.ov.Lca(m.Dst)
		e.queues[lca] = append(e.queues[lca], m.ID)
		p.queued = true
	}
}

// onAck handles an acknowledgment from an ancestor destination or a
// notified ancestor (Algorithm 2 lines 7-11).
func (e *Engine) onAck(env amcast.Envelope, outs *[]amcast.Output) {
	e.mergeHist(env.Hist)
	m := env.Msg
	if e.wasDelivered(m.ID) {
		return
	}
	from := env.From
	if !from.IsClient() {
		p := e.pending(m.ID)
		if !slices.Contains(p.acks, from.Group()) {
			p.acks = append(p.acks, from.Group())
		}
		for _, c := range env.AckCovers {
			p.addNotifAck(from.Group(), c.Notifier, c.Epoch)
		}
		e.mergeNotifList(p, env.NotifList)
	}
}

// onNotif handles a notification: this group is not a destination of the
// message but must flush its dependencies down the C-DAG (Algorithm 2
// lines 12-18). Every distinct notifier is processed: its NOTIF arrived
// on the same FIFO link as the notifier's earlier history traffic, so
// the open-dependency snapshot taken here covers everything the notifier
// ordered before the message. A NOTIF is folded as a duplicate only when
// its certification epoch does not exceed the highest already accepted
// from that notifier; a bumped epoch certifies a fresh edge and is
// processed anew — its dependency snapshot, taken after the FIFO link
// delivered the traffic that caused the bump, covers the fresh message.
// The resulting ack declares the (notifier, epoch) entries it answers
// (AckCovers), letting destinations pair acks with notifier epochs.
func (e *Engine) onNotif(env amcast.Envelope, outs *[]amcast.Output) {
	e.mergeHist(env.Hist)
	m := env.Msg
	notifier := env.From.Group()
	epoch := env.CertEpoch
	if epoch == 0 {
		epoch = 1
	}
	done := e.notifDone[m.ID]
	if m.HasDst(e.g) || env.From.IsClient() || epoch <= done.get(notifier) {
		// Destinations ack on delivery; notifications already accepted
		// at this epoch (or a later one) are folded.
		return
	}
	e.notifDone[m.ID] = done.put(notifier, epoch)
	e.notifDoneLog = append(e.notifDoneLog, notifPut{m.ID, notifier, epoch})
	if len(e.open) == 0 {
		e.sendFlushAck(m.Header(), []amcast.AckCover{{Notifier: notifier, Epoch: epoch}}, outs)
		return
	}
	e.pendNotif = append(e.pendNotif, &pendingNotif{msg: m.Header(), notifier: notifier, epoch: epoch, deps: maps.Clone(e.open)})
}

func (e *Engine) wasDelivered(id amcast.MsgID) bool { return e.delivered.Has(id) }

func (e *Engine) pending(id amcast.MsgID) *pending {
	p, ok := e.pend[id]
	if !ok {
		p = &pending{}
		e.pend[id] = p
	}
	return p
}

func (e *Engine) mergeNotifList(p *pending, ps []amcast.NotifPair) {
	for _, pr := range ps {
		if pr.Epoch == 0 {
			pr.Epoch = 1
		}
		p.addNotif(pr)
	}
}

// mergeHist integrates a received history diff (update-hst in Algorithm 3)
// and maintains the open-dependency set and the per-group traffic
// counters driving NOTIF re-certification.
func (e *Engine) mergeHist(d *amcast.HistDelta) {
	for _, n := range e.hst.Merge(d) {
		for _, dst := range n.Dst {
			e.trafficSeq[dst]++
		}
		mine := slices.Contains(n.Dst, e.g)
		switch {
		case len(n.Dst) > 0 && !mine:
			// Never delivered here (genuineness: g delivers only messages
			// addressed to it), so the delivered set need not be asked.
		case e.wasDelivered(n.ID):
			// Pruned after its delivery here, back through a late diff.
			e.hst.MarkDelivered(n.ID)
		case mine:
			e.open[n.ID] = true
			e.hst.MarkOpen(n.ID)
		}
	}
}

// deliver delivers m at this group (Algorithm 3 lines 20-31), appending
// the outputs it generates.
func (e *Engine) deliver(m amcast.Message, outs *[]amcast.Output) {
	e.deliveredLog = append(e.deliveredLog, m.ID)
	e.delivered.Add(m.ID)
	e.deliveries = append(e.deliveries, amcast.Delivery{Group: e.g, Seq: e.seq, Msg: m})
	e.seq++
	if len(m.Dst) == 1 {
		// Addressed to this group alone: delivered on arrival at its lca,
		// open nowhere, with nobody to forward to, ack or notify, and one
		// in- and one out-edge in the history (this group's delivery
		// chain). Leaving it out contracts prev → m → next to prev → next,
		// which keeps every path between the remaining nodes (DESIGN.md §4
		// deviation 9). A flush is addressed to every group, so it takes
		// this path only in a one-group overlay, whose history is empty.
		return
	}
	if e.hst.AppendDelivered(history.Node{ID: m.ID, Dst: m.Dst}) {
		// A locally appended node is new traffic for its destinations,
		// exactly like a merged one (mergeHist counts those).
		for _, dst := range m.Dst {
			e.trafficSeq[dst]++
		}
	}
	delete(e.open, m.ID)

	lca := e.ov.Lca(m.Dst)
	if lca == e.g {
		e.sendDescendants(m, amcast.KindMsg, nil, outs)
	} else {
		e.dequeue(lca, m.ID)
		e.sendDescendants(m.Header(), amcast.KindAck, nil, outs)
	}
	delete(e.pend, m.ID)
	// This group never notifies about m again after delivering it (all
	// sends for m happen above), so its notifier-side record is dead.
	delete(e.notifSent, m.ID)

	if len(e.pendNotif) > 0 {
		e.releaseNotifs(m.ID, outs)
	}
	if m.Flags&amcast.FlagFlush != 0 && !e.cfg.DisableGC {
		e.nPruned += e.hst.PruneBefore(m.ID)
	}
}

// releaseNotifs unblocks the pending notifications that waited only on
// the delivery of id. Entries for the same message that unblock together
// are answered with one ack covering all their (notifier, epoch) entries,
// in the order the first of them was deferred.
func (e *Engine) releaseNotifs(id amcast.MsgID, outs *[]amcast.Output) {
	kept := e.pendNotif[:0]
	var ready []*pendingNotif
	for _, pn := range e.pendNotif {
		delete(pn.deps, id)
		if len(pn.deps) > 0 {
			kept = append(kept, pn)
		} else {
			ready = append(ready, pn)
		}
	}
	clear(e.pendNotif[len(kept):])
	e.pendNotif = kept
	for i, pn := range ready {
		if pn == nil {
			continue // folded into an earlier entry's ack
		}
		covers := []amcast.AckCover{{Notifier: pn.notifier, Epoch: pn.epoch}}
		for j := i + 1; j < len(ready); j++ {
			if o := ready[j]; o != nil && o.msg.ID == pn.msg.ID {
				covers = append(covers, amcast.AckCover{Notifier: o.notifier, Epoch: o.epoch})
				ready[j] = nil
			}
		}
		e.sendFlushAck(pn.msg, covers, outs)
	}
}

func (e *Engine) dequeue(lca amcast.GroupID, id amcast.MsgID) {
	q := e.queues[lca]
	if i := slices.Index(q, id); i >= 0 {
		if len(q) == 1 {
			delete(e.queues, lca)
		} else {
			e.queues[lca] = slices.Delete(q, i, i+1)
		}
	}
}

// sendFlushAck answers one or more notifiers' NOTIFs for m: an ACK to
// every destination above this group, declaring the covered
// (notifier, epoch) entries.
func (e *Engine) sendFlushAck(m amcast.Message, covers []amcast.AckCover, outs *[]amcast.Output) {
	e.sendDescendants(m, amcast.KindAck, amcast.NormalizeCovers(covers), outs)
}

// sendDescendants implements Algorithm 3 lines 32-35: notify
// non-destination descendants as needed (Strategy c), then send the
// MSG/ACK with a history diff to every destination ranked above this
// group. covers, set on a notified group's flush ack, names the
// (notifier, epoch) entries the ack answers (nil on delivery acks and
// MSG). The NOTIFs and the MSG/ACK leave in one atomic step, so the
// pair list announced to destinations always carries the epochs the
// NOTIFs were actually sent at — a destination can never learn a pair
// without also learning its current certification epoch.
func (e *Engine) sendDescendants(m amcast.Message, kind amcast.Kind, covers []amcast.AckCover, outs *[]amcast.Output) {
	notifList := e.sendNotifs(m, outs)
	if p, ok := e.pend[m.ID]; ok {
		notifList = append(notifList, p.notif...)
	}
	notifList = amcast.NormalizePairs(notifList)

	myRank := e.ov.Rank(e.g)
	for _, d := range m.Dst {
		if e.ov.Rank(d) <= myRank {
			continue
		}
		delta := e.diffFor(d)
		*outs = append(*outs, amcast.Output{
			To: amcast.GroupNode(d),
			Env: amcast.Envelope{
				Kind:      kind,
				From:      amcast.GroupNode(e.g),
				Msg:       m,
				Hist:      delta,
				NotifList: notifList,
				AckCovers: covers,
			},
		})
	}
}

// sendNotifs implements Algorithm 3 lines 36-40 (Strategy c): for every
// descendant d that is not a destination of m but is an ancestor of some
// destination, and to which this group's history holds application
// traffic, send a NOTIF so d can flush its dependencies. Each NOTIF
// carries a certification epoch: 1 on the first NOTIF about m to d,
// bumped whenever traffic addressed to d has entered this group's
// history since the last NOTIF (trafficSeq advanced) — the NOTIF then
// certifies edges the earlier one could not have, so the notified group
// must not fold it. With no new traffic the epoch is unchanged and the
// receiver folds the re-send (its history diff still advances d's
// knowledge). Returns the (this group → d) pairs at the epochs actually
// sent, for the accompanying MSG/ACK's pair list.
func (e *Engine) sendNotifs(m amcast.Message, outs *[]amcast.Output) []amcast.NotifPair {
	maxRank := -1
	for _, d := range m.Dst {
		if r := e.ov.Rank(d); r > maxRank {
			maxRank = r
		}
	}
	var notified []amcast.NotifPair
	myRank := e.ov.Rank(e.g)
	for r := myRank + 1; r < maxRank; r++ {
		d := e.ov.GroupAt(r)
		if m.HasDst(d) || !e.hst.ContainsMsgTo(d) {
			continue
		}
		sent := e.notifSent[m.ID]
		st := sent.get(d)
		cur := e.trafficSeq[d]
		switch {
		case st.epoch == 0 || cur > st.seq:
			st = notifState{epoch: st.epoch + 1, seq: cur}
		}
		e.notifSent[m.ID] = sent.put(d, st)
		delta := e.diffFor(d)
		*outs = append(*outs, amcast.Output{
			To: amcast.GroupNode(d),
			Env: amcast.Envelope{
				Kind:      amcast.KindNotif,
				From:      amcast.GroupNode(e.g),
				Msg:       m.Header(),
				Hist:      delta,
				CertEpoch: st.epoch,
			},
		})
		notified = append(notified, amcast.NotifPair{Notifier: e.g, Notified: d, Epoch: st.epoch})
	}
	return notified
}

func (e *Engine) diffFor(d amcast.GroupID) *amcast.HistDelta {
	delta, cur := e.hst.DiffSince(e.cursors[d])
	e.cursors[d] = cur
	return delta
}

// reprocess drains the ancestor queues while progress is possible
// (Algorithm 3 lines 41-48). outs accumulates all generated envelopes;
// the (possibly grown) slice is returned for convenience.
func (e *Engine) reprocess(outs *[]amcast.Output) []amcast.Output {
	for len(e.queues) > 0 {
		progressed := false
		// Iterate ancestors in rank order for determinism.
		for _, lca := range e.ancestors {
			q := e.queues[lca]
			if len(q) == 0 {
				continue
			}
			id := q[0]
			if e.canDeliver(id) {
				// canDeliver's last walk went back from id and found nothing
				// open: every node it visited precedes a delivered message
				// from here on (DESIGN.md §4 deviation 5).
				e.hst.CloseWalked(id)
				e.deliver(e.pend[id].msg, outs)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return *outs
}

// canDeliver implements Algorithm 3 lines 49-54.
func (e *Engine) canDeliver(id amcast.MsgID) bool {
	p := e.pend[id]
	if p == nil || !p.hasMsg {
		return false
	}
	// Condition 1: acks from every ancestor destination except the lca,
	// and, for every known notification pair whose notified group is an
	// ancestor of g, a flush ack from that group covering that notifier
	// at the pair's certification epoch or later (notified groups
	// ranked above g ack only their own descendants). Pair-wise
	// matching is what makes the wait causally meaningful: the covering
	// ack was sent after the notified group processed that notifier's
	// NOTIF at that epoch, which on FIFO links follows every message
	// the notifier had ordered before m — including the fresh traffic
	// that caused an epoch bump (DESIGN.md §4 deviation 8).
	m := p.msg
	lca := e.ov.Lca(m.Dst)
	myRank := e.ov.Rank(e.g)
	for _, d := range m.Dst {
		if d == lca || e.ov.Rank(d) >= myRank {
			continue
		}
		if !slices.Contains(p.acks, d) {
			return false
		}
	}
	for _, pr := range p.notif {
		if e.ov.Rank(pr.Notified) < myRank && p.flushed(pr.Notified, pr.Notifier) < pr.Epoch {
			return false
		}
	}
	// Condition 2: no undelivered message addressed to g precedes m. The
	// search prunes at locally delivered and at closed nodes: everything
	// ordered before a delivered message and addressed to g was delivered
	// first, so no open dependency can hide behind one.
	return !e.openBefore(id)
}

// WalkReport is one condition-2 walk as WalkCheck sees it: group g asked
// whether an open dependency precedes Msg.
type WalkReport struct {
	Group amcast.GroupID
	Msg   amcast.MsgID
	// Full is the answer of the full walk — AnyBeforeUntil over the
	// engine's own open and delivered sets, stopping only at delivered
	// nodes — and Pruned the answer of the walk the engine acts on, which
	// also stops at closed nodes.
	Full, Pruned bool
	// FullNodes and PrunedNodes count the nodes each walk reached.
	FullNodes, PrunedNodes int
}

// WalkCheck, when set, is called with every condition-2 walk. It exists
// for tests that check the closed rule against the walk it prunes;
// nothing else sets it. The pruned walk runs last, so the engine behaves
// as it does without a check.
var WalkCheck atomic.Pointer[func(WalkReport)]

// openBefore is condition 2's walk: whether an open dependency precedes
// id in the history.
func (e *Engine) openBefore(id amcast.MsgID) bool {
	check := WalkCheck.Load()
	if check == nil {
		return e.hst.AnyOpenBefore(id)
	}
	r := WalkReport{Group: e.g, Msg: id}
	r.Full = e.hst.AnyBeforeUntil(id, func(x amcast.MsgID) bool { return e.open[x] }, e.wasDelivered)
	r.FullNodes = e.hst.Walked()
	r.Pruned = e.hst.AnyOpenBefore(id)
	r.PrunedNodes = e.hst.Walked()
	(*check)(r)
	return r.Pruned
}

// CheckHistoryAcyclic verifies that the merged history remains a DAG —
// the internal invariant behind the Acyclic Order property; exposed for
// tests.
func (e *Engine) CheckHistoryAcyclic() error { return e.hst.CheckAcyclic() }

// HistorySnapshot returns the live history nodes and edges, sorted;
// exposed for tests and chaos failure analysis.
func (e *Engine) HistorySnapshot() ([]history.Node, []amcast.HistEdge) {
	return e.hst.Snapshot()
}

// OpenDependencies returns the ids of undelivered messages addressed to
// this group that appear in its history, sorted; exposed for tests.
func (e *Engine) OpenDependencies() []amcast.MsgID {
	ids := make([]amcast.MsgID, 0, len(e.open))
	for id := range e.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// DebugDump renders the engine's blocking state — queued messages with
// the acks they hold and need, open dependencies, withheld notifications
// — for chaos-schedule failure analysis and tests.
func (e *Engine) DebugDump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "group %d: delivered=%d open=%v\n", e.g, len(e.deliveredLog), e.OpenDependencies())
	lcas := make([]amcast.GroupID, 0, len(e.queues))
	for lca := range e.queues {
		lcas = append(lcas, lca)
	}
	sort.Slice(lcas, func(i, j int) bool { return lcas[i] < lcas[j] })
	for _, lca := range lcas {
		for _, id := range e.queues[lca] {
			p := e.pend[id]
			if p == nil {
				fmt.Fprintf(&sb, "  q[lca %d] %s: no pending state\n", lca, id)
				continue
			}
			acks := slices.Clone(p.acks)
			slices.Sort(acks)
			fmt.Fprintf(&sb, "  q[lca %d] %s: hasMsg=%v dst=%v acks=%v notif=%v canDeliver=%v\n",
				lca, id, p.hasMsg, p.msg.Dst, acks, amcast.NormalizePairs(slices.Clone(p.notif)), e.canDeliver(id))
		}
	}
	for _, pn := range e.pendNotif {
		deps := make([]amcast.MsgID, 0, len(pn.deps))
		for id := range pn.deps {
			deps = append(deps, id)
		}
		sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
		fmt.Fprintf(&sb, "  withheld notif-ack for %s (notifier %d epoch %d): waiting on %v\n", pn.msg.ID, pn.notifier, pn.epoch, deps)
	}
	return sb.String()
}
