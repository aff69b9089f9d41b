package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"flexcast/amcast"
	"flexcast/internal/codec"
	"flexcast/internal/core"
	"flexcast/internal/durable"
	"flexcast/internal/gtpcc"
	"flexcast/internal/hierarchical"
	"flexcast/internal/history"
	"flexcast/internal/skeen"
	"flexcast/internal/store"
	"flexcast/internal/wan"
)

// The ledger is a pump the benchmark owns: one goroutine, one seeded
// schedule, no clocks in its decisions. It replays a workload's own
// transaction stream — the same per-session gTPC-C generators, seeds and
// home groups loadgen gives its sessions — through the real layer stack,
//
//	span(durable) ∘ durable.Wrap ∘ span(store) ∘ store.NewExecutor ∘ span(engine) ∘ core.New
//
// one stack per group, moving envelopes between the stacks itself in
// rounds: sessions with nothing outstanding issue, then every group
// drains its inbox in one batch step, group by group in rank order.
// Because the schedule depends on nothing but the seed, every count the
// ledger reports repeats exactly; the times are self times of the spans
// recorded around each call.
//
// What it is not: the runtime's queues, goroutine hand-offs, sockets and
// timers are not here, so ledger nanoseconds explain CPU per
// transaction, not latency.

const (
	// The closed-loop population: 2 client processes of 16 sessions, as
	// in every wall-clock workload.
	ledgerClients        = 2
	ledgerWorkersPerProc = 16
	// ledgerMaxBatch is the runtime's batch cap (loadgen MaxBatch).
	ledgerMaxBatch = 64
)

// ledgerConfig selects which layers the stack has and which stream it
// is fed; workloads.go derives one per workload.
type ledgerConfig struct {
	seed       int64
	txs        int
	locality   float64
	globalOnly bool
	// protocol is flexcast, skeen or hierarchical (the two baselines are
	// measured in the ledger only).
	protocol string
	// flushEvery is the §4.3 flush period in issued transactions.
	flushEvery int
	// codec makes every hop a real frame: AppendBatch at the sender,
	// DecodeFrame at the receiver.
	codec bool
	// durableDir, when set, puts every stack behind durable.Wrap with the
	// default cadences, persisting under it.
	durableDir string
	// readPct is the share of session iterations that are fast-path
	// reads; followers is the number of follower replicas per group that
	// serve them and are fed the delivery log.
	readPct   float64
	followers int
	// spans turns the decorator and the pump's own spans on; off is the
	// undecorated reference stack of the equivalence test.
	spans bool
}

// ledgerResult is what one pump run measured.
type ledgerResult struct {
	layers [numLayers]layerTotals
	spans  int

	txs, reads, readFallbacks uint64
	// steps counts engine batch steps, envsIn the envelopes they
	// consumed; payloadIn of those carried a payload and nondestPayload
	// of those reached a group outside the message's destinations.
	steps, envsIn, payloadIn, nondestPayload uint64
	// deltas counts history deltas on stepped envelopes, histNodes their
	// vertices.
	deltas, histNodes uint64
	// frames, frameEnvs and frameBytes count inter-node batches (codec
	// workloads encode each one).
	frames, frameEnvs, frameBytes uint64
	flushes                       uint64
	histLenMax                    int
	snapshotBytes                 uint64
	snapshots                     uint64
	// fsyncs and durableSnapshots are the durable layer's own counts over
	// the pump (process-wide histogram deltas).
	fsyncs, durableSnapshots uint64
	wallNs                   int64
	// digest folds every shard's digest in group order.
	digest [32]byte
}

type ledgerNode struct {
	g         amcast.GroupID
	eng       amcast.Engine
	exec      *store.Executor
	dur       *durable.Engine
	inbox     []amcast.Envelope
	shadow    *history.History
	followers []*store.Replica
}

type ledgerSession struct {
	client int
	gen    *gtpcc.Gen
	reads  *rand.Rand
	seq    uint64
	busy   bool
	rr     uint64
}

type ledgerTx struct {
	remaining int
	session   *ledgerSession // nil for flush multicasts
}

// outbox groups the envelopes of one issue round or one batch step by
// destination, in first-envelope order: one batch per destination, like
// the runtime's batcher at a chunk end.
type outbox struct {
	byDst map[amcast.NodeID][]amcast.Envelope
	order []amcast.NodeID
}

func (o *outbox) add(to amcast.NodeID, env amcast.Envelope) {
	if _, ok := o.byDst[to]; !ok {
		o.order = append(o.order, to)
	}
	o.byDst[to] = append(o.byDst[to], env)
}

// flush sends every batch and empties the outbox; it reports whether
// there was anything to send.
func (o *outbox) flush(l *ledger) bool {
	order := o.order
	o.order = nil
	for _, to := range order {
		envs := o.byDst[to]
		delete(o.byDst, to)
		l.send(to, envs)
	}
	return len(order) > 0
}

type ledger struct {
	cfg    ledgerConfig
	rec    *recorder
	groups []amcast.GroupID
	nodes  map[amcast.GroupID]*ledgerNode
	route  func(m amcast.Message) []amcast.NodeID
	// newProto builds one group's protocol engine (undecorated).
	newProto   func(g amcast.GroupID) (amcast.SnapshotEngine, error)
	snapDecode func([]byte) (amcast.Snapshot, error)

	sessions []*ledgerSession
	inflight map[amcast.MsgID]*ledgerTx
	prefix   []amcast.PrefixTracker // per client process
	out      outbox
	res      ledgerResult
	issued   int
	flushSeq uint64
}

// runLedger builds the stacks, pumps cfg.txs transactions through them
// and folds the spans.
func runLedger(cfg ledgerConfig) (*ledgerResult, error) {
	l := &ledger{
		cfg:      cfg,
		groups:   wan.Groups(),
		nodes:    make(map[amcast.GroupID]*ledgerNode),
		inflight: make(map[amcast.MsgID]*ledgerTx),
		out:      outbox{byDst: make(map[amcast.NodeID][]amcast.Envelope)},
	}
	if cfg.spans {
		// ~50 spans per global transaction; the slice grows if a stream
		// needs more.
		l.rec = newRecorder(cfg.txs * 24)
	}
	if err := l.buildProtocol(); err != nil {
		return nil, err
	}
	for _, g := range l.groups {
		n, err := l.buildNode(g, cfg.durableDir)
		if err != nil {
			l.close()
			return nil, err
		}
		l.nodes[g] = n
	}
	defer l.close()
	if err := l.buildSessions(); err != nil {
		return nil, err
	}

	fsync0, snap0 := durable.FsyncHist().Count(), durable.SnapshotHist().Count()
	start := time.Now()
	if err := l.pump(); err != nil {
		return nil, err
	}
	l.res.wallNs = int64(time.Since(start))
	l.res.fsyncs = durable.FsyncHist().Count() - fsync0
	l.res.durableSnapshots = durable.SnapshotHist().Count() - snap0

	if err := l.audit(); err != nil {
		return nil, err
	}
	if l.rec != nil {
		l.res.layers = fold(l.rec.spans)
		l.res.spans = len(l.rec.spans)
	}
	return &l.res, nil
}

func (l *ledger) buildProtocol() error {
	switch l.cfg.protocol {
	case "flexcast":
		ov := wan.O1()
		l.newProto = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return core.New(core.Config{Group: g, Overlay: ov})
		}
		l.route = func(m amcast.Message) []amcast.NodeID {
			return []amcast.NodeID{amcast.GroupNode(ov.Lca(m.Dst))}
		}
		l.snapDecode = core.UnmarshalSnapshot
	case "skeen":
		l.newProto = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return skeen.New(skeen.Config{Group: g, Groups: l.groups})
		}
		l.route = func(m amcast.Message) []amcast.NodeID {
			nodes := make([]amcast.NodeID, len(m.Dst))
			for i, g := range m.Dst {
				nodes[i] = amcast.GroupNode(g)
			}
			return nodes
		}
		l.snapDecode = skeen.UnmarshalSnapshot
	case "hierarchical":
		tr := wan.T1()
		l.newProto = func(g amcast.GroupID) (amcast.SnapshotEngine, error) {
			return hierarchical.New(hierarchical.Config{Group: g, Tree: tr})
		}
		l.route = func(m amcast.Message) []amcast.NodeID {
			return []amcast.NodeID{amcast.GroupNode(tr.Lca(m.Dst))}
		}
		l.snapDecode = hierarchical.UnmarshalSnapshot
	default:
		return fmt.Errorf("ledger: unknown protocol %q", l.cfg.protocol)
	}
	return nil
}

// buildNode assembles one group's stack, outermost wrapper last.
func (l *ledger) buildNode(g amcast.GroupID, durableDir string) (*ledgerNode, error) {
	proto, err := l.newProto(g)
	if err != nil {
		return nil, err
	}
	exec, err := store.NewExecutor(decorate(l.rec, layEngine, proto), store.Config{Warehouse: g, Seed: l.cfg.seed}, true)
	if err != nil {
		return nil, err
	}
	n := &ledgerNode{g: g, exec: exec, shadow: history.New()}
	top := decorate(l.rec, layStore, exec)
	if durableDir != "" {
		exDecode := func(data []byte) (amcast.Snapshot, error) { return store.UnmarshalSnapshot(data, l.snapDecode) }
		n.dur, err = durable.Wrap(top, durable.Options{Dir: filepath.Join(durableDir, fmt.Sprintf("group-%d", g)), Decode: exDecode})
		if err != nil {
			return nil, err
		}
		top = decorate(l.rec, layDurable, n.dur)
	}
	n.eng = top
	if l.cfg.followers > 0 {
		// Followers are cloned from a donor executor that is never stepped,
		// so it never feeds them itself: the pump ships the serving
		// executor's deliveries, which puts Replica.Feed under a span of
		// its own instead of inside the store's.
		donorProto, err := l.newProto(g)
		if err != nil {
			return nil, err
		}
		donor, err := store.NewExecutor(donorProto, store.Config{Warehouse: g, Seed: l.cfg.seed}, false)
		if err != nil {
			return nil, err
		}
		for i := 1; i <= l.cfg.followers; i++ {
			rep, err := donor.AttachFollower(store.ReplicaConfig{
				Idx:           int32(i),
				Clock:         func() uint64 { return 1 },
				AutoGrantTerm: 1 << 40, // the first feed grants a lease the constant clock never outlives
			})
			if err != nil {
				return nil, err
			}
			n.followers = append(n.followers, rep)
		}
	}
	return n, nil
}

// buildSessions mirrors loadgen's session set: per-session generator
// seeds, client c homed at group c of the region list.
func (l *ledger) buildSessions() error {
	l.prefix = make([]amcast.PrefixTracker, ledgerClients)
	for c := 0; c < ledgerClients; c++ {
		l.prefix[c] = make(amcast.PrefixTracker)
		home := l.groups[c%len(l.groups)]
		for w := 0; w < ledgerWorkersPerProc; w++ {
			rng := rand.New(rand.NewSource(l.cfg.seed + int64(c)*7919 + int64(w)*104729))
			gen, err := gtpcc.New(gtpcc.Config{
				Home:       home,
				Nearest:    wan.NearestOrder(home),
				Locality:   l.cfg.locality,
				GlobalOnly: l.cfg.globalOnly,
			}, rng)
			if err != nil {
				return err
			}
			l.sessions = append(l.sessions, &ledgerSession{
				client: c,
				gen:    gen,
				reads:  rand.New(rand.NewSource(l.cfg.seed ^ 0x5EED_BEEF + int64(c)*15485863 + int64(w)*32452843)),
				seq:    uint64(w) << 24,
			})
		}
	}
	return nil
}

func (l *ledger) close() {
	for _, n := range l.nodes {
		if n.dur != nil {
			n.dur.Close()
		}
		for _, rep := range n.followers {
			rep.Close()
		}
	}
}

// pump runs rounds until every transaction has completed.
func (l *ledger) pump() error {
	for {
		progressed := l.issueRound()
		for _, g := range l.groups {
			n := l.nodes[g]
			for len(n.inbox) > 0 {
				k := len(n.inbox)
				if k > ledgerMaxBatch {
					k = ledgerMaxBatch
				}
				batch := n.inbox[:k:k]
				n.inbox = n.inbox[k:]
				l.step(n, batch)
				progressed = true
			}
		}
		if l.issued >= l.cfg.txs && len(l.inflight) == 0 {
			return nil
		}
		if !progressed {
			return fmt.Errorf("ledger: stuck with %d transactions in flight after %d issued", len(l.inflight), l.issued)
		}
	}
}

// issueRound lets every idle session run its loop up to its next write:
// fast-path reads are served on the spot, the write is sent to its
// entry group. Requests of one round to one group travel as one batch.
func (l *ledger) issueRound() bool {
	request := func(m amcast.Message) {
		for _, to := range l.route(m) {
			l.out.add(to, amcast.Envelope{Kind: amcast.KindRequest, From: m.Sender, Msg: m})
		}
	}
	for _, s := range l.sessions {
		if s.busy || l.issued >= l.cfg.txs {
			continue
		}
		for l.cfg.readPct > 0 && s.reads.Float64()*100 < l.cfg.readPct {
			l.read(s)
		}
		if l.issued > 0 && l.issued%l.cfg.flushEvery == 0 {
			l.flushSeq++
			fm := amcast.Message{
				ID:     amcast.NewMsgID(0, 1<<38+l.flushSeq),
				Sender: amcast.ClientNode(0),
				Dst:    append([]amcast.GroupID(nil), l.groups...),
				Flags:  amcast.FlagFlush,
			}
			l.inflight[fm.ID] = &ledgerTx{remaining: len(fm.Dst)}
			l.res.flushes++
			request(fm)
		}
		h := l.rec.begin(layGtpccNext, 0)
		tx := s.gen.Next()
		l.rec.end(h, 0)
		s.seq++
		m := amcast.Message{
			ID:     amcast.NewMsgID(s.client, s.seq),
			Sender: amcast.ClientNode(s.client),
			Dst:    tx.Dst,
		}
		h = l.rec.begin(layGtpccEncode, uint64(m.ID))
		m.Payload = gtpcc.EncodeTx(tx)
		l.rec.end(h, len(m.Payload))
		l.inflight[m.ID] = &ledgerTx{remaining: len(m.Dst), session: s}
		s.busy = true
		l.issued++
		l.res.txs++
		request(m)
	}
	return l.out.flush(l)
}

// read serves one fast-path read the way the workload routes it: at a
// follower replica when the stack has them (round-robin), at the serving
// executor otherwise or when the follower refuses.
func (l *ledger) read(s *ledgerSession) {
	tx := s.gen.NextRead()
	n := l.nodes[tx.Home]
	barrier := l.prefix[s.client].Prefix(tx.Home)
	h := l.rec.begin(layStoreRead, 0)
	var res store.ReadResult
	var err error
	served := false
	if len(n.followers) > 0 {
		s.rr++
		res, err = n.followers[s.rr%uint64(len(n.followers))].TryReadAt(tx, barrier, 1)
		served = err == nil
	}
	if !served {
		if len(n.followers) > 0 {
			l.res.readFallbacks++
		}
		res, err = n.exec.TryRead(tx, barrier)
	}
	l.rec.end(h, 0)
	if err == nil {
		l.prefix[s.client].Fold(tx.Home, res.Watermark)
	}
	l.res.reads++
}

// send moves one batch to a node: through the codec when the workload's
// hops are frames, by reference otherwise. Batches to clients are
// handled on arrival; batches to groups wait in the inbox for the
// group's turn.
func (l *ledger) send(to amcast.NodeID, envs []amcast.Envelope) {
	l.res.frames++
	l.res.frameEnvs += uint64(len(envs))
	if l.cfg.codec {
		h := l.rec.begin(layCodecEncode, uint64(envs[0].Msg.ID))
		frame := codec.AppendBatch(make([]byte, 0, codec.BatchSize(envs)), envs)
		l.rec.end(h, len(frame))
		l.res.frameBytes += uint64(len(frame))
		h = l.rec.begin(layCodecDecode, uint64(envs[0].Msg.ID))
		decoded, err := codec.DecodeFrame(frame)
		l.rec.end(h, len(frame))
		if err != nil {
			panic(fmt.Sprintf("ledger: frame the codec encoded does not decode: %v", err))
		}
		envs = decoded
	}
	if to.IsClient() {
		l.onReplies(to.ClientIndex(), envs)
		return
	}
	n := l.nodes[to.Group()]
	n.inbox = append(n.inbox, envs...)
}

// step is one runtime chunk: one batch step, one delivery drain, the
// outputs grouped per destination in first-output order.
func (l *ledger) step(n *ledgerNode, envs []amcast.Envelope) {
	for i := range envs {
		env := &envs[i]
		if env.Kind.IsPayload() {
			l.res.payloadIn++
			if !env.Msg.HasDst(n.g) {
				l.res.nondestPayload++
			}
		}
		if env.Hist != nil {
			l.res.deltas++
			l.res.histNodes += uint64(len(env.Hist.Nodes))
			h := l.rec.begin(layHistoryMerge, uint64(env.Msg.ID))
			n.shadow.Merge(env.Hist)
			l.rec.end(h, 0)
		}
	}
	l.res.steps++
	l.res.envsIn += uint64(len(envs))
	outs := amcast.BatchStep(n.eng, envs)
	dels := n.eng.TakeDeliveries()

	for _, o := range outs {
		l.out.add(o.To, o.Env)
	}
	from := amcast.GroupNode(n.g)
	for _, d := range dels {
		if d.Msg.Flags&amcast.FlagFlush != 0 {
			// The shadow history is fed the deltas and the flush points the
			// engine's own history sees; a flush it never heard of (no delta
			// mentioned it) prunes nothing.
			h := l.rec.begin(layHistoryPrune, uint64(d.Msg.ID))
			n.shadow.PruneBefore(d.Msg.ID)
			l.rec.end(h, 0)
		}
		if d.Msg.Sender.IsClient() {
			l.out.add(d.Msg.Sender, amcast.Envelope{
				Kind: amcast.KindReply, From: from, Msg: d.Msg.Header(),
				TS: d.Seq, Result: d.Result, Watermark: d.Watermark,
			})
		}
	}
	if sl := n.shadow.Len(); sl > l.res.histLenMax {
		l.res.histLenMax = sl
	}
	if len(dels) > 0 {
		for _, rep := range n.followers {
			h := l.rec.begin(layStoreFeed, uint64(dels[0].Msg.ID))
			rep.Feed(dels)
			l.rec.end(h, 0)
		}
	}
	l.out.flush(l)
}

// onReplies is the client side: fold the session barrier, retire the
// transaction when its last destination has replied.
func (l *ledger) onReplies(client int, envs []amcast.Envelope) {
	for _, env := range envs {
		if env.Kind != amcast.KindReply {
			continue
		}
		l.prefix[client].Observe(env)
		tx, ok := l.inflight[env.Msg.ID]
		if !ok {
			continue
		}
		tx.remaining--
		if tx.remaining > 0 {
			continue
		}
		delete(l.inflight, env.Msg.ID)
		if tx.session != nil {
			tx.session.busy = false
		}
	}
}

// audit is the ledger's own output check: mirrors agree, the cross-shard
// invariants hold, followers reached the serving shard's state, a
// durable stack recovers to the live digest; it also takes the
// snapshot-encode measurement and the run's digest.
func (l *ledger) audit() error {
	shards := make([]*store.Shard, 0, len(l.groups))
	sum := sha256.New()
	for _, g := range l.groups {
		n := l.nodes[g]
		if err := n.exec.CheckMirror(); err != nil {
			return err
		}
		d := n.exec.Digest()
		sum.Write(d[:])
		shards = append(shards, n.exec.Shard())
		for _, rep := range n.followers {
			if rep.Shard().Digest() != d {
				return fmt.Errorf("ledger: group %d follower %d diverges from the serving shard", g, rep.Idx())
			}
		}
		h := l.rec.begin(layStoreSnapshot, 0)
		data, err := n.exec.Snapshot().(amcast.BinarySnapshot).MarshalBinary()
		l.rec.end(h, len(data))
		if err != nil {
			return err
		}
		l.res.snapshots++
		l.res.snapshotBytes += uint64(len(data))
	}
	if err := store.CheckInvariants(shards); err != nil {
		return err
	}
	copy(l.res.digest[:], sum.Sum(nil))
	if l.cfg.durableDir == "" {
		return nil
	}
	// Recover the persisted image into fresh, equally decorated stacks:
	// snapshot restore plus log replay must land on the live digest.
	for _, g := range l.groups {
		live := l.nodes[g]
		if err := live.dur.Err(); err != nil {
			return fmt.Errorf("ledger: group %d durable backend: %w", g, err)
		}
		if err := live.dur.Close(); err != nil {
			return err
		}
		fresh, err := l.buildNode(g, l.cfg.durableDir)
		if err != nil {
			return fmt.Errorf("ledger: group %d recovery: %w", g, err)
		}
		got := fresh.exec.Digest()
		fresh.dur.Close()
		if got != live.exec.Digest() {
			return fmt.Errorf("ledger: group %d recovered shard digest diverges from the live one", g)
		}
	}
	return nil
}

// counts renders everything the ledger counted — nothing it timed — one
// field per line: what must repeat exactly for a seed.
func (r *ledgerResult) counts() string {
	s := fmt.Sprintf("txs %d\nreads %d\nread_fallbacks %d\nsteps %d\nenvs_in %d\npayload_in %d\nnondest_payload %d\ndeltas %d\nhist_nodes %d\nframes %d\nframe_envs %d\nframe_bytes %d\nflushes %d\nhist_len_max %d\nsnapshot_bytes %d\nfsyncs %d\ndurable_snapshots %d\nspans %d\ndigest %x\n",
		r.txs, r.reads, r.readFallbacks, r.steps, r.envsIn, r.payloadIn, r.nondestPayload, r.deltas, r.histNodes,
		r.frames, r.frameEnvs, r.frameBytes, r.flushes, r.histLenMax, r.snapshotBytes, r.fsyncs, r.durableSnapshots, r.spans, r.digest)
	for l, t := range r.layers {
		s += fmt.Sprintf("%s calls %d bytes %d\n", layerNames[l], t.calls, t.bytes)
	}
	return s
}
