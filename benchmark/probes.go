package main

import (
	"fmt"
	"math/rand"
	"time"

	"flexcast/amcast"
	"flexcast/internal/paxos"
	"flexcast/internal/stats"
	"flexcast/internal/transport"
)

// Probes are the ledger's measurements of layers the pump does not
// cross: a TCP echo pair and an in-memory mailbox pair the benchmark
// owns (the pump moves envelopes itself, so the real transports are
// measured beside it), and three Paxos replicas the benchmark routes
// messages between (loadgen ships delivery logs directly, never through
// Paxos).

// probeEnvelope is a reply-sized control envelope: what most frames on
// the wire carry.
func probeEnvelope(seq uint64) amcast.Envelope {
	return amcast.Envelope{
		Kind: amcast.KindReply,
		From: amcast.GroupNode(1),
		Msg: amcast.Message{
			ID:     amcast.NewMsgID(0, seq),
			Sender: amcast.ClientNode(0),
			Dst:    []amcast.GroupID{1, 2},
		},
		TS:        seq,
		Result:    amcast.ResultCommitted,
		Watermark: seq + 1,
	}
}

// pingPong times rounds round trips of a frame of perFrame envelopes
// between two endpoints: send from a, b's handler echoes, a's handler
// signals. It returns the median round trip in nanoseconds.
func pingPong(rounds, perFrame int, sendA func([]amcast.Envelope), arrived <-chan struct{}) (float64, error) {
	frame := make([]amcast.Envelope, perFrame)
	samples := make([]float64, 0, rounds)
	for i := 0; i < rounds+rounds/10; i++ {
		for j := range frame {
			frame[j] = probeEnvelope(uint64(i*perFrame + j + 1))
		}
		start := time.Now()
		sendA(append([]amcast.Envelope(nil), frame...))
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("probe: echo of frame %d not seen within 5s", i)
		}
		if i >= rounds/10 { // the first tenth warms the connection
			samples = append(samples, float64(time.Since(start)))
		}
	}
	return stats.Median(samples), nil
}

// tcpEchoRTT measures the median round trip of 1- and 64-envelope
// frames between two NewTCPBatchNode endpoints on loopback.
func tcpEchoRTT(rounds int) (rtt1Ns, rtt64Ns float64, err error) {
	a, b := amcast.ClientNode(1000), amcast.ClientNode(1001)
	book := transport.AddrBook{a: "127.0.0.1:0", b: "127.0.0.1:0"}
	arrived := make(chan struct{}, 1)
	na, err := transport.NewTCPBatchNode(a, book, func([]amcast.Envelope) { arrived <- struct{}{} })
	if err != nil {
		return 0, 0, err
	}
	defer na.Close()
	var nb *transport.TCPNode
	ready := make(chan struct{})
	nb, err = transport.NewTCPBatchNode(b, book, func(envs []amcast.Envelope) {
		<-ready
		_ = nb.SendBatch(a, envs) // a failed echo shows as the probe's timeout
	})
	if err != nil {
		return 0, 0, err
	}
	defer nb.Close()
	// Both listeners exist; publish their real ports before the first dial.
	book[a], book[b] = na.Addr(), nb.Addr()
	close(ready)
	send := func(envs []amcast.Envelope) { _ = na.SendBatch(b, envs) }
	if rtt1Ns, err = pingPong(rounds, 1, send, arrived); err != nil {
		return 0, 0, err
	}
	rtt64Ns, err = pingPong(rounds, 64, send, arrived)
	return rtt1Ns, rtt64Ns, err
}

// inmemHopNs measures one mailbox hand-off of the in-memory transport:
// half the median round trip of a 1-envelope batch between two
// mailboxes.
func inmemHopNs(rounds int) (float64, error) {
	a, b := amcast.ClientNode(1000), amcast.ClientNode(1001)
	nw := transport.NewInMemNet()
	defer nw.Close()
	arrived := make(chan struct{}, 1)
	if err := nw.AddBatchHandler(a, func([]amcast.Envelope) { arrived <- struct{}{} }); err != nil {
		return 0, err
	}
	if err := nw.AddBatchHandler(b, func(envs []amcast.Envelope) { nw.SendBatch(b, a, envs) }); err != nil {
		return 0, err
	}
	rtt, err := pingPong(rounds, 1, func(envs []amcast.Envelope) { nw.SendBatch(a, b, envs) }, arrived)
	return rtt / 2, err
}

// paxosTrio decides `decides` 64-byte values on three replicas with the
// benchmark delivering every message, and returns the mean wall time and
// message count per decision.
func paxosTrio(seed int64, decides int) (decideNs, msgsPerDecide float64, err error) {
	reps := make([]*paxos.Replica, 3)
	for i := range reps {
		if reps[i], err = paxos.NewReplica(paxos.Config{ID: paxos.ReplicaID(i), N: 3}); err != nil {
			return 0, 0, err
		}
	}
	var queue []paxos.Message
	msgs := 0
	drain := func() {
		for len(queue) > 0 {
			m := queue[0]
			queue = queue[1:]
			msgs++
			queue = append(queue, reps[m.To].OnMessage(m)...)
		}
	}
	value := make([]byte, 64)
	rand.New(rand.NewSource(seed)).Read(value)
	// The first proposal also elects replica 0; keep it out of the timing.
	queue = append(queue, reps[0].Propose(value)...)
	drain()
	msgs = 0
	start := time.Now()
	for i := 0; i < decides; i++ {
		queue = append(queue, reps[0].Propose(value)...)
		drain()
	}
	elapsed := time.Since(start)
	for _, r := range reps {
		if got := int(r.Decided()); got != decides+1 {
			return 0, 0, fmt.Errorf("probe: paxos replica %d decided %d of %d values", r.ID(), got, decides+1)
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(decides), float64(msgs) / float64(decides), nil
}
