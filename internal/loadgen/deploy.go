package loadgen

import (
	"fmt"
	"sync"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/gtpcc"
	"flexcast/internal/runtime"
	"flexcast/internal/telemetry"
	"flexcast/internal/transport"
)

// deployment is a run's server side: the transport, the runtime nodes
// hosted on it, and a close function tearing both down.
type deployment struct {
	nodes []*runtime.Node
	close func()
}

// wrapNet decorates every run's transport; tests swap it to fault links.
var wrapNet = func(n runtime.Net) runtime.Net { return n }

// launch builds the group servers and client processes on the selected
// transport: the in-memory net, the same behind the WAN delay decorator,
// or a loopback TCP mesh with one listener per group and per client
// process, so every envelope crosses the real codec, framing and kernel
// socket path. Servers and clients attach through the same seam
// (runtime.Net).
func launch(cfg Config, r *run) (*deployment, []*clientProc, error) {
	proto := r.proto
	clients := make([]*clientProc, cfg.Clients)
	for i := range clients {
		clients[i] = &clientProc{
			idx:   i,
			id:    amcast.ClientNode(i),
			calls: client.NewCalls[txState](i, proto.Route),
			run:   r,
		}
		if cfg.Sessions > 0 {
			clients[i].sessions = newSessions(i, cfg.Sessions)
			clients[i].sessBase = clients[i].sessions[0].id
		}
	}
	var net runtime.Net
	switch cfg.Transport {
	case "tcp":
		// Kernel-chosen loopback ports, all bound before any node dials.
		book := make(transport.AddrBook, len(proto.Groups)+len(clients))
		var ids []amcast.NodeID
		local := func(id amcast.NodeID) {
			ids = append(ids, id)
			book[id] = "127.0.0.1:0"
		}
		for _, g := range proto.Groups {
			local(amcast.GroupNode(g))
		}
		for _, c := range clients {
			local(c.id)
		}
		mesh, err := transport.ListenTCP(book, ids...)
		if err != nil {
			return nil, nil, fmt.Errorf("loadgen: %w", err)
		}
		net = mesh
	case "wan":
		net = newDelayNet(transport.NewInMemNet(), proto.Groups)
	default:
		net = transport.NewInMemNet()
	}
	net = wrapNet(net)
	dep := &deployment{}
	// Idempotent: a durable run closes the deployment before its
	// recovery verification, and Run's deferred close follows.
	dep.close = sync.OnceFunc(func() {
		net.Close()
		for _, n := range dep.nodes {
			n.Close()
		}
		proto.CloseFollowers()
	})
	attach := func() error {
		var err error
		if dep.nodes, err = proto.Host(net, func(g amcast.GroupID) runtime.Config { return nodeConfig(cfg, r, g) }); err != nil {
			return err
		}
		for _, c := range clients {
			send, err := net.Attach(c.id, c.onReplies)
			if err != nil {
				return err
			}
			c.batcher = runtime.NewBatcher(send, cfg.MaxBatch)
		}
		return nil
	}
	if err := attach(); err != nil {
		dep.close()
		return nil, nil, err
	}
	return dep, clients, nil
}

func runtimeConfig(cfg Config, tracer *telemetry.Tracer) runtime.Config {
	return runtime.Config{MaxBatch: cfg.MaxBatch, Tracer: tracer}
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
