// Command flexclient drives a TCP deployment of flexnode processes with
// a closed-loop gTPC-C client and reports per-destination latency
// percentiles, mirroring the paper's measurement methodology (§5.3).
//
// Usage:
//
//	flexclient -client 0 -home 1 -protocol flexcast \
//	           -overlay 8,7,6,5,2,1,3,4,9,10,11,12 \
//	           -peers g1=...,g2=...,c0=:5000 -n 1000 -locality 0.95
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"flexcast/amcast"
	"flexcast/internal/client"
	"flexcast/internal/deploy"
	"flexcast/internal/gtpcc"
	"flexcast/internal/metrics"
	"flexcast/internal/transport"
)

func main() {
	var (
		clientIdx = flag.Int("client", 0, "client index (unique per client process)")
		home      = flag.Int("home", 1, "home warehouse/group id")
		protocol  = flag.String("protocol", "flexcast", "protocol: flexcast, skeen|distributed, hierarchical|tree")
		overlayF  = flag.String("overlay", "", "comma-separated C-DAG rank order / group list")
		treeF     = flag.String("tree", "", "tree spec (hierarchical only; see flexnode -help)")
		peersF    = flag.String("peers", "", "comma-separated nodeid=host:port pairs")
		n         = flag.Int("n", 100, "number of transactions to issue")
		locality  = flag.Float64("locality", 0.95, "gTPC-C locality rate")
		seed      = flag.Int64("seed", 1, "random seed")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-transaction timeout")
	)
	flag.Parse()
	if err := run(*clientIdx, *home, *protocol, *overlayF, *treeF, *peersF, *n, *locality, *seed, *timeout); err != nil {
		log.Fatalf("flexclient: %v", err)
	}
}

func run(clientIdx, home int, protocol, overlayF, treeF, peersF string,
	n int, locality float64, seed int64, timeout time.Duration) error {
	book, err := deploy.ParsePeers(peersF)
	if err != nil {
		return err
	}
	dep, err := deploy.FromFlags(protocol, overlayF, treeF)
	if err != nil {
		return err
	}
	homeG := amcast.GroupID(home)
	gen, err := gtpcc.New(gtpcc.Config{
		Home:       homeG,
		Nearest:    dep.Nearest(homeG),
		Locality:   locality,
		GlobalOnly: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}

	// The call table collects one reply per destination; each call's entry
	// carries when it was issued and how long each destination took, in
	// arrival order (the dispatcher is one goroutine).
	type txWait struct {
		started time.Time
		replies []time.Duration
		done    chan struct{}
	}
	var mu sync.Mutex // guards calls
	calls := client.NewCalls[txWait](clientIdx, dep.Route)
	node, err := transport.NewTCPBatchNode(calls.ID(), book, func(envs []amcast.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		for _, env := range envs {
			call, progress := calls.Reply(env)
			if call == nil {
				continue
			}
			call.Data.replies = append(call.Data.replies, time.Since(call.Data.started))
			if progress == client.Completed {
				close(call.Data.done)
			}
		}
	})
	if err != nil {
		return err
	}
	defer node.Close()

	// Per-destination latencies go into the exact-percentile histogram
	// (internal/metrics) — bounded memory however long the run.
	perDest := make([]*metrics.Histogram, 3)
	for i := range perDest {
		perDest[i] = metrics.NewHistogram()
	}
	completed := 0
	for i := 0; i < n; i++ {
		tx := gen.Next()
		m := calls.Message(uint64(i+1), tx.Dst, 0, make([]byte, tx.PayloadSize))
		mu.Lock()
		call := calls.Issue(m, txWait{started: time.Now(), done: make(chan struct{})})
		mu.Unlock()

		var sendErr error
		calls.Requests(m, func(to amcast.NodeID, env amcast.Envelope) {
			if err := node.SendBatch(to, []amcast.Envelope{env}); err != nil && sendErr == nil {
				sendErr = err
			}
		})
		if sendErr != nil {
			return fmt.Errorf("tx %d: %w", i, sendErr)
		}
		timer := time.NewTimer(timeout)
		select {
		case <-call.Data.done:
			timer.Stop()
			// Completed: the call has left the table, nothing writes it.
			for k, d := range call.Data.replies {
				if k < 3 {
					perDest[k].Record(uint64(max(d.Microseconds(), 0)))
				}
			}
			completed++
		case <-timer.C:
			return fmt.Errorf("tx %d (%s to %v) timed out", i, m.ID, m.Dst)
		}
	}

	fmt.Printf("client %d: %d/%d transactions completed\n", clientIdx, completed, n)
	fmt.Println("dest   90p      95p      99p   (ms)")
	for k, rec := range perDest {
		if rec.Count() == 0 {
			continue
		}
		fmt.Printf("%3d  %s\n", k+1, rec.PercentileRow(1000))
	}
	return nil
}
