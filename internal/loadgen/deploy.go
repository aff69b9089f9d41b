package loadgen

import (
	"fmt"
	"net"
	"sync"

	"flexcast/amcast"
	"flexcast/internal/gtpcc"
	"flexcast/internal/runtime"
	"flexcast/internal/telemetry"
	"flexcast/internal/transport"
)

// deployment is the transport-specific part of a run: the server-side
// runtime nodes plus a close function tearing everything down.
type deployment struct {
	nodes []*runtime.Node
	close func()
}

// launch builds the group servers and client processes on the selected
// transport.
func launch(cfg Config, r *run) (*deployment, []*clientProc, error) {
	clients := make([]*clientProc, cfg.Clients)
	for i := range clients {
		clients[i] = &clientProc{
			idx:      i,
			id:       amcast.ClientNode(i),
			out:      make(chan amcast.Message, cfg.Workers),
			inflight: make(map[amcast.MsgID]*txState),
			prefix:   make(amcast.PrefixTracker),
			run:      r,
		}
		if cfg.Sessions > 0 {
			clients[i].sessions = newSessions(i, cfg.Sessions)
			clients[i].sessBase = clients[i].sessions[0].id
		}
	}
	var (
		dep *deployment
		err error
	)
	switch cfg.Transport {
	case "tcp":
		dep, err = deployTCP(cfg, r, clients)
	default:
		dep, err = deployInMem(cfg, r, clients)
	}
	if err != nil {
		return nil, nil, err
	}
	// Idempotent: a durable run closes the deployment before its
	// recovery verification, and Run's deferred close follows.
	dep.close = sync.OnceFunc(dep.close)
	return dep, clients, nil
}

func runtimeConfig(cfg Config, tracer *telemetry.Tracer) runtime.Config {
	rc := runtime.Config{
		MaxBatch:      cfg.MaxBatch,
		FlushInterval: cfg.FlushInterval,
		Tracer:        tracer,
	}
	if cfg.Adaptive {
		// The zero AdaptiveConfig fills to the full range: floor 1
		// envelope / 50µs, ceiling the static knobs above. Adaptivity is
		// server-side only — client batchers coalesce their own sessions
		// and flush when the queue runs dry, which is already adaptive.
		rc.Adaptive = &runtime.AdaptiveConfig{}
	}
	return rc
}

// nodeConfig is runtimeConfig plus, on executing deployments, the
// KindRead service: remote reads are answered directly against the
// node's executor at the requested barrier — TryRead, because a
// barrier derived from observed replies is always already applied at
// the serving node (the watermark advances before replies leave), so a
// miss is a broken contract and surfaces as a refusal the client fails
// on.
func nodeConfig(cfg Config, r *run, g amcast.GroupID) runtime.Config {
	rc := runtimeConfig(cfg, r.tracer)
	// The read handler serves against the executor itself, inside any
	// durable wrap (reads are not inputs — nothing to log).
	ex, ok := r.proto.Executors[g]
	if !ok {
		return rc
	}
	ex.SetTracer(r.tracer)
	from := amcast.GroupNode(g)
	rc.ReadHandler = func(env amcast.Envelope) amcast.Envelope {
		reply := amcast.Envelope{
			Kind:   amcast.KindReply,
			From:   from,
			Msg:    env.Msg.Header(),
			Result: amcast.ResultRefused,
		}
		tx, err := gtpcc.DecodeTx(env.Msg.Payload)
		if err != nil {
			return reply
		}
		res, err := ex.TryRead(tx, env.TS)
		if err != nil {
			return reply
		}
		reply.Result = amcast.ResultCommitted
		reply.Watermark = res.Watermark
		reply.Value = res.Value
		return reply
	}
	return rc
}

// deployInMem also serves the "wan" transport: the same in-memory
// deployment with every link routed through a delayNet applying the
// paper's inter-region one-way latencies.
func deployInMem(cfg Config, r *run, clients []*clientProc) (*deployment, error) {
	proto := r.proto
	nw := transport.NewInMemNet()
	var dn *delayNet
	if cfg.Transport == "wan" {
		dn = newDelayNet(proto.Groups)
	}
	// sendVia builds a node's send function: straight into the mailbox,
	// or through the WAN delay queue of the (from, to) link.
	sendVia := func(from amcast.NodeID) func(to amcast.NodeID, envs []amcast.Envelope) {
		if dn == nil {
			return func(to amcast.NodeID, envs []amcast.Envelope) { nw.SendBatch(from, to, envs) }
		}
		return func(to amcast.NodeID, envs []amcast.Envelope) {
			dn.send(from, to, envs, func(to amcast.NodeID, envs []amcast.Envelope) {
				nw.SendBatch(from, to, envs)
			})
		}
	}
	dep := &deployment{}
	for _, g := range proto.Groups {
		eng, err := proto.NewEngine(g)
		if err != nil {
			nw.Close()
			return nil, err
		}
		id := amcast.GroupNode(g)
		node := runtime.NewNode(eng, sendVia(id), nodeConfig(cfg, r, g))
		dep.nodes = append(dep.nodes, node)
		if err := nw.AddBatchHandler(id, node.Submit); err != nil {
			nw.Close()
			return nil, err
		}
	}
	for _, c := range clients {
		c := c
		c.batcher = runtime.NewBatcher(sendVia(c.id), cfg.MaxBatch)
		if err := nw.AddBatchHandler(c.id, c.onReplies); err != nil {
			nw.Close()
			return nil, err
		}
	}
	dep.close = func() {
		if dn != nil {
			dn.close()
		}
		nw.Close()
		for _, n := range dep.nodes {
			n.Close()
		}
		proto.CloseFollowers()
	}
	return dep, nil
}

// deployTCP runs the whole deployment over loopback TCP: one listening
// node per group and per client process, so every envelope crosses the
// real codec, framing and kernel socket path.
func deployTCP(cfg Config, r *run, clients []*clientProc) (*deployment, error) {
	proto := r.proto
	book := make(transport.AddrBook, len(proto.Groups)+len(clients))
	var ids []amcast.NodeID
	for _, g := range proto.Groups {
		ids = append(ids, amcast.GroupNode(g))
	}
	for _, c := range clients {
		ids = append(ids, c.id)
	}
	// One loopback listener per node on a kernel-chosen port, held open
	// from here until its node takes it over: the book is built from
	// addresses that stay bound, so nothing else can claim one in between.
	listeners := make(map[amcast.NodeID]net.Listener, len(ids))
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners {
				l.Close()
			}
			return nil, fmt.Errorf("loadgen: listen: %w", err)
		}
		listeners[id] = ln
		book[id] = ln.Addr().String()
	}
	takeListener := func(id amcast.NodeID) net.Listener {
		ln := listeners[id]
		delete(listeners, id)
		return ln
	}

	dep := &deployment{}
	var tcpNodes []*transport.TCPNode
	cleanup := func() {
		for _, l := range listeners {
			l.Close() // only on a failed deployment: nodes own the rest
		}
		for _, tn := range tcpNodes {
			tn.Close()
		}
		for _, n := range dep.nodes {
			n.Close()
		}
		proto.CloseFollowers()
	}
	for _, g := range proto.Groups {
		eng, err := proto.NewEngine(g)
		if err != nil {
			cleanup()
			return nil, err
		}
		// The listener starts accepting before tn is assigned; the send
		// path gates on ready so a frame dispatched in that window parks
		// until the assignment is published.
		var tn *transport.TCPNode
		ready := make(chan struct{})
		node := runtime.NewNode(eng, func(to amcast.NodeID, envs []amcast.Envelope) {
			<-ready
			// Peer unreachable mid-benchmark only happens at teardown.
			_ = tn.SendBatch(to, envs)
		}, nodeConfig(cfg, r, g))
		tn = transport.NewTCPBatchNodeOn(amcast.GroupNode(g), book, takeListener(amcast.GroupNode(g)), node.Submit)
		close(ready)
		dep.nodes = append(dep.nodes, node)
		tcpNodes = append(tcpNodes, tn)
	}
	for _, c := range clients {
		c := c
		tn := transport.NewTCPBatchNodeOn(c.id, book, takeListener(c.id), c.onReplies)
		tcpNodes = append(tcpNodes, tn)
		c.batcher = runtime.NewBatcher(func(to amcast.NodeID, envs []amcast.Envelope) {
			_ = tn.SendBatch(to, envs)
		}, cfg.MaxBatch)
	}
	dep.close = cleanup
	return dep, nil
}
