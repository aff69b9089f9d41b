// Command flexnode runs one protocol group as a TCP server — one process
// per group, as in the paper's CloudLab deployment.
//
// Usage:
//
//	flexnode -group 2 -protocol flexcast -overlay 8,7,6,5,2,1,3,4,9,10,11,12 \
//	         -peers g1=host1:4001,g2=host2:4002,...,c0=client:5000
//
// The overlay flag gives the C-DAG rank order (FlexCast), the full group
// list (skeen), or is replaced by -tree for the hierarchical protocol.
// The peers flag must name every group (gN=addr) and every client
// (cN=addr) that will participate.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"flexcast/amcast"
	"flexcast/internal/deploy"
	"flexcast/internal/runtime"
	"flexcast/internal/telemetry"
	"flexcast/internal/transport"
)

func main() {
	var (
		group    = flag.Int("group", 0, "this node's group id (1-based)")
		protocol = flag.String("protocol", "flexcast", "protocol: flexcast, skeen|distributed, hierarchical|tree")
		overlayF = flag.String("overlay", "", "comma-separated C-DAG rank order / group list")
		treeF    = flag.String("tree", "", "tree as root:parent=child|child,parent=child (hierarchical only)")
		peersF   = flag.String("peers", "", "comma-separated nodeid=host:port pairs (g1=..., c0=...)")
		batch    = flag.Int("batch", 64, "max envelopes per runtime batch (1 disables batching)")
		telem    = flag.String("telemetry", "", "serve /metrics (JSON) and /debug/pprof on this address (e.g. 127.0.0.1:8090)")
		verbose  = flag.Bool("v", false, "log every delivery")
	)
	flag.Parse()
	if err := run(*group, *protocol, *overlayF, *treeF, *peersF, *batch, *telem, *verbose); err != nil {
		log.Fatalf("flexnode: %v", err)
	}
}

func run(group int, protocol, overlayF, treeF, peersF string, batch int, telem string, verbose bool) error {
	if group <= 0 {
		return fmt.Errorf("missing -group")
	}
	g := amcast.GroupID(group)
	book, err := deploy.ParsePeers(peersF)
	if err != nil {
		return err
	}
	dep, err := deploy.FromFlags(protocol, overlayF, treeF)
	if err != nil {
		return err
	}
	eng, err := dep.NewEngine(g)
	if err != nil {
		return err
	}

	onDeliver := func(d amcast.Delivery) {
		if verbose {
			log.Printf("group %d delivered %s seq=%d dst=%v payload=%dB",
				d.Group, d.Msg.ID, d.Seq, d.Msg.Dst, len(d.Msg.Payload))
		}
	}
	// The batched node runtime over TCP: inbound frames (single or batch)
	// drain through the engine's batch fast path; outputs leave as batch
	// frames per destination.
	mesh, err := transport.ListenTCP(book, amcast.GroupNode(g))
	if err != nil {
		return err
	}
	rt, err := runtime.Host(mesh, eng, runtime.Config{MaxBatch: batch, OnDeliver: onDeliver})
	if err != nil {
		mesh.Close()
		return err
	}
	defer func() {
		mesh.Close() // first, so a send parked on a dead peer fails fast
		rt.Close()
	}()
	log.Printf("flexnode: group %d (%s) listening on %s (batch=%d)", group, protocol, mesh.Addr(amcast.GroupNode(g)), batch)

	if telem != "" {
		runtime.RegisterTelemetry(telemetry.Default, []*runtime.Node{rt}, nil)
		srv, err := telemetry.Serve(telem, telemetry.Default)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer srv.Close()
		log.Printf("flexnode: telemetry on http://%s/metrics (pprof under /debug/pprof/)", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("flexnode: shutting down")
	return nil
}
