package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"flexcast/amcast"
	"flexcast/internal/codec"
)

// rxNode starts a TCPNode on an ephemeral port that records every
// dispatched envelope.
type rxNode struct {
	node *TCPNode
	mu   sync.Mutex
	got  []amcast.Envelope
}

func startRxNode(t *testing.T, id amcast.NodeID, book AddrBook) *rxNode {
	t.Helper()
	r, err := newRxNode(id, book)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newRxNode(id amcast.NodeID, book AddrBook) (*rxNode, error) {
	r := &rxNode{}
	n, err := NewTCPNode(id, book, func(env amcast.Envelope) {
		r.mu.Lock()
		r.got = append(r.got, env)
		r.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	r.node = n
	return r, nil
}

// restartRxNode starts id again on the address its previous node held.
// Binding it can fail with EADDRINUSE until the kernel lets go of the
// closed listener's port, so that error is retried for a while.
func restartRxNode(t *testing.T, id amcast.NodeID, book AddrBook) *rxNode {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		r, err := newRxNode(id, book)
		if err == nil {
			return r
		}
		if !errors.Is(err, syscall.EADDRINUSE) || time.Now().After(deadline) {
			t.Fatal(err)
		}
	}
}

func (r *rxNode) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

func testEnv(id uint64) amcast.Envelope {
	return amcast.Envelope{
		Kind: amcast.KindRequest,
		From: amcast.ClientNode(0),
		Msg: amcast.Message{
			ID:      amcast.MsgID(id),
			Sender:  amcast.ClientNode(0),
			Dst:     []amcast.GroupID{1},
			Payload: []byte("ping"),
		},
	}
}

// TestReconnectAfterPeerRestart covers the Send retry path: a peer
// closes (crash), restarts on the same address, and the cached broken
// connection is replaced by a fresh dial.
func TestReconnectAfterPeerRestart(t *testing.T) {
	const (
		a amcast.NodeID = 1
		b amcast.NodeID = 2
	)
	book := AddrBook{a: "127.0.0.1:0", b: "127.0.0.1:0"}
	rb := startRxNode(t, b, book)
	book[b] = rb.node.Addr() // the address b restarts on and a dials
	ra := startRxNode(t, a, book)
	defer ra.node.Close()

	if err := ra.node.Send(b, testEnv(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return rb.count() == 1 })

	// Restart b on the same address; a's cached connection is now dead.
	rb.node.Close()
	rb2 := restartRxNode(t, b, book)
	defer rb2.node.Close()

	// A write into the dead connection may succeed (kernel buffer)
	// before the peer's RST is observed, so retry until the message
	// lands: this is exactly what the protocols' runtimes do on the
	// assumption of reliable channels.
	waitFor(t, 5*time.Second, func() bool {
		_ = ra.node.Send(b, testEnv(2))
		return rb2.count() >= 1
	})
}

// TestPartialFrameReads covers the framing decoder against a sender that
// trickles a frame byte by byte: the node must reassemble it and must
// not dispatch anything for a frame that is cut short.
func TestPartialFrameReads(t *testing.T) {
	const b amcast.NodeID = 2
	book := AddrBook{b: "127.0.0.1:0"}
	rb := startRxNode(t, b, book)
	defer rb.node.Close()

	conn, err := net.Dial("tcp", rb.node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	payload := codec.Marshal(testEnv(7))
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(payload)))
	frame := append(hdr[:hn:hn], payload...)
	for _, by := range frame {
		if _, err := conn.Write([]byte{by}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	waitFor(t, 2*time.Second, func() bool { return rb.count() == 1 })

	// A truncated second frame (header promises more bytes than sent,
	// then the connection closes) must not dispatch an envelope.
	if _, err := conn.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	time.Sleep(50 * time.Millisecond)
	if got := rb.count(); got != 1 {
		t.Fatalf("truncated frame dispatched: %d envelopes, want 1", got)
	}
}

// TestOversizedFrameRejected covers the maxFrame guard: a header
// declaring a frame beyond the limit must terminate the connection
// without dispatching or allocating the claimed size.
func TestOversizedFrameRejected(t *testing.T) {
	const b amcast.NodeID = 2
	book := AddrBook{b: "127.0.0.1:0"}
	rb := startRxNode(t, b, book)
	defer rb.node.Close()

	conn, err := net.Dial("tcp", rb.node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(maxFrame)+1)
	if _, err := conn.Write(hdr[:hn]); err != nil {
		t.Fatal(err)
	}
	// The reader must drop the connection: our next read sees EOF/reset.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after oversized frame header")
	}
	if got := rb.count(); got != 0 {
		t.Fatalf("oversized frame dispatched %d envelopes", got)
	}

	// The node itself stays healthy: a well-formed frame on a fresh
	// connection is still accepted.
	conn2, err := net.Dial("tcp", rb.node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	payload := codec.Marshal(testEnv(9))
	hn = binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := conn2.Write(append(hdr[:hn:hn], payload...)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return rb.count() == 1 })
}
